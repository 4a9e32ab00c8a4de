// RingBufferSink: bounded window of the most recent snapshots, safe to
// poll from any thread — the live-dashboard sink of the serving layer. A
// renderer (e.g. src/rack's ANSI/SVG rack views) polls window()/latest()
// while a run or an AsyncSink worker keeps delivering; old snapshots are
// evicted FIFO once the ring is full, and evicted() counts them, so a slow
// poller sees a gap, never a stall.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "core/assessor.hpp"

namespace imrdmd::serve {

class RingBufferSink final : public core::SnapshotSink {
 public:
  /// Keeps the `capacity` (>= 1) most recent snapshots.
  explicit RingBufferSink(std::size_t capacity);

  using core::SnapshotSink::on_snapshot;
  bool on_snapshot(const core::AssessmentSnapshot& snapshot) override;
  bool on_snapshot(core::AssessmentSnapshot&& snapshot) override;

  /// Copy of the buffered window, oldest first.
  std::vector<core::AssessmentSnapshot> window() const;
  /// Copy of the most recent snapshot, or nullopt before the first.
  std::optional<core::AssessmentSnapshot> latest() const;

  std::size_t capacity() const { return capacity_; }
  /// Snapshots delivered over the sink's lifetime.
  std::size_t delivered() const;
  /// Snapshots evicted to keep the window bounded.
  std::size_t evicted() const;

 private:
  void push(core::AssessmentSnapshot&& snapshot);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<core::AssessmentSnapshot> ring_;
  std::size_t delivered_ = 0;
  std::size_t evicted_ = 0;
};

}  // namespace imrdmd::serve
