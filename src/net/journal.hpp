// On-disk chunk journal ("IMRDJL1"): the spool that makes a socket-fed
// ChunkSource genuinely seekable. Every chunk the ingest listener accepts
// is appended here before it is acked, so
//
//   * position()/seek()/replay work over the full received history (the
//     ChunkSource conformance contract — a checkpointed socket tenant can
//     rewind to any snapshot it already consumed),
//   * a successor process reopens the same journal and resumes bitwise
//     (the chunks are stored as raw IEEE-754 bit patterns), and
//   * the server's ack means the chunk is in this file: what the shipper
//     believes was delivered is exactly what a restarted process can still
//     replay. append() writes with write(2) and never fsyncs, so an acked
//     chunk survives a process kill but not a power loss or OS crash.
//
// File layout (all integers LE, via the shared common/byte_codec.hpp):
//   8 bytes   magic "IMRDJL1\n"
//   8 bytes   sensors (u64; every chunk must carry this many rows)
//   records:
//     u8 kind            1 = chunk, 2 = end-of-stream
//     chunk records add: u64 cols, u64 FNV-1a64 digest of the payload,
//                        sensors*cols f64 LE (row-major)
//
// Reopen semantics: records are scanned front to back. A truncated tail
// record (the expected debris of a kill mid-append) is discarded and the
// file truncated back to the last complete record; a *complete* record whose
// digest fails is real corruption and throws Error. The end marker makes
// stream completion durable across restarts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace imrdmd::net {

class ChunkJournal {
 public:
  /// Opens (or creates) the journal at `path`. An existing file is
  /// scanned: its index is rebuilt, a torn tail record is truncated away,
  /// and `sensors` must match the recorded width (Error otherwise).
  ChunkJournal(std::string path, std::size_t sensors);
  ~ChunkJournal();

  ChunkJournal(const ChunkJournal&) = delete;
  ChunkJournal& operator=(const ChunkJournal&) = delete;

  const std::string& path() const { return path_; }
  std::size_t sensors() const { return sensors_; }

  /// Chunks journaled so far (the listener's cumulative ack sequence).
  std::size_t chunks() const;
  /// Snapshot columns journaled so far.
  std::size_t snapshots() const;
  /// True once the end-of-stream marker was journaled.
  bool ended() const;

  /// Appends one chunk record (rows must equal sensors(), cols >= 1) and
  /// flushes it to the file. Throws Error on I/O failure and
  /// InvalidArgument after the end marker.
  void append(const linalg::Mat& chunk);

  /// Appends the end-of-stream marker. Idempotent.
  void append_end();

  /// Reads chunk `index` back (bitwise identical to what was appended).
  linalg::Mat read_chunk(std::size_t index) const;

  /// Columns of chunk `index`.
  std::size_t chunk_cols(std::size_t index) const;
  /// First snapshot index of chunk `index` (cumulative column offset).
  std::size_t chunk_start(std::size_t index) const;
  /// Index of the chunk containing snapshot `snapshot`
  /// (requires snapshot < snapshots()).
  std::size_t find_chunk(std::size_t snapshot) const;

 private:
  struct Record {
    std::uint64_t payload_offset = 0;  // file offset of the f64 payload
    std::size_t cols = 0;
    std::size_t start = 0;  // cumulative snapshot offset
  };

  /// Scans an existing file of `file_size` bytes, rebuilding records_;
  /// returns the offset of the first torn byte (== file size when the tail
  /// is clean).
  std::uint64_t scan_locked(std::uint64_t file_size);

  mutable std::mutex mutex_;
  std::string path_;
  std::size_t sensors_ = 0;
  int fd_ = -1;  // one O_RDWR fd: appends via write, reads via pread
  std::uint64_t append_offset_ = 0;
  std::vector<Record> records_;
  std::size_t snapshots_ = 0;
  bool ended_ = false;
};

}  // namespace imrdmd::net
