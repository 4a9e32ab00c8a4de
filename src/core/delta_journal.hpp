// Bookkeeping of an engine's checkpoint files (core/checkpoint.hpp): the
// delta epoch the main at its path names, for full and delta saves alike,
// and the delta save's journal. Part of the checkpoint module: the engine
// owns one DeltaJournal and only hands it each processed chunk's owned raw
// rows; every other field is read and written by core/checkpoint.cpp alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace imrdmd::core {

class DeltaJournal {
 public:
  /// Journals one processed chunk's owned raw rows (owned_sensor_rows()
  /// order) until the next save appends them to this process's part file.
  void record(const linalg::Mat& owned_rows) {
    pending_.push_back(owned_rows);
  }

  /// The owned row layout changed (elastic growth): the journaled rows can
  /// no longer extend the current base, so the next save rewrites it.
  void rebase() {
    appendable_ = false;
    pending_.clear();
  }

 private:
  friend struct CheckpointAccess;

  /// Owned raw rows of each chunk processed since the last save.
  std::vector<linalg::Mat> pending_;
  /// The checkpoint path this journal last wrote, loaded or found a main
  /// at (empty before any), the delta epoch that main names, and its
  /// writer count (0 when it names no parts) — the parts the next base
  /// rewrite or full save at the same path retires.
  std::string path_;
  std::size_t epoch_ = 0;
  std::size_t writers_ = 0;
  /// True while this engine's own base heads its part of the epoch, so a
  /// save may append pending_ instead of rewriting the base.
  bool appendable_ = false;
  /// Chunk count and stream position at the base write.
  std::size_t base_chunks_ = 0;
  std::size_t base_position_ = 0;
  /// Bytes written to this process's part so far and their running
  /// FNV-1a64 digest — recorded in the manifest so a torn append is
  /// truncated away on load.
  std::uint64_t part_bytes_ = 0;
  std::uint64_t part_digest_ = 0;
};

}  // namespace imrdmd::core
