#include "serve/ring_sink.hpp"

#include <utility>

#include "common/error.hpp"

namespace imrdmd::serve {

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  IMRDMD_REQUIRE_ARG(capacity >= 1, "RingBufferSink capacity must be >= 1");
}

void RingBufferSink::push(core::AssessmentSnapshot&& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++evicted_;
  }
  ring_.push_back(std::move(snapshot));
  ++delivered_;
}

bool RingBufferSink::on_snapshot(const core::AssessmentSnapshot& snapshot) {
  push(core::AssessmentSnapshot(snapshot));
  return true;
}

bool RingBufferSink::on_snapshot(core::AssessmentSnapshot&& snapshot) {
  push(std::move(snapshot));
  return true;
}

std::vector<core::AssessmentSnapshot> RingBufferSink::window() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::optional<core::AssessmentSnapshot> RingBufferSink::latest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) return std::nullopt;
  return ring_.back();
}

std::size_t RingBufferSink::delivered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return delivered_;
}

std::size_t RingBufferSink::evicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

}  // namespace imrdmd::serve
