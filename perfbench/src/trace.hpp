// Tracing for the benchmark's traced run, all from outside the library:
//
//   * a forwarding linalg::Backend ("perfbench-traced") registered around
//     the pinned backend, counting and timing every dispatched kernel in
//     per-thread accumulators;
//   * in-memory spans (name, start, end, parent, chunk id) recorded around
//     the benchmark's own calls into each layer, written out at exit.
//
// Both are inert unless the traced pass switches them on, so untraced
// passes pay one relaxed atomic load per span site and nothing per kernel
// (they select the pinned backend directly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/stream.hpp"
#include "harness.hpp"

namespace perfbench::trace {

/// Name under which the forwarding backend is registered.
inline constexpr const char* kTracedBackend = "perfbench-traced";

/// Registers the forwarding backend around `inner` (once per process).
void install_backend(const std::string& inner);

struct LinalgTotals {
  double svd_calls = 0.0;
  double svd_s = 0.0;
  double gemm_calls = 0.0;
  double gemm_s = 0.0;
  double gemm_gflop = 0.0;
  double qr_s = 0.0;
  double project_out_s = 0.0;
};

/// Sum over every thread's accumulator. Read only while no kernel runs.
LinalgTotals linalg_totals();
/// Zeroes every accumulator. Call only while no kernel runs.
void reset_linalg();

/// Turns span recording on or off (off by default).
void set_enabled(bool enabled);
bool enabled();

inline constexpr std::uint64_t kNoChunk = ~std::uint64_t{0};

/// Records one finished span; returns its id (0 when tracing is off).
/// `parent` is a span id or 0.
std::uint64_t record(const char* name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t parent = 0,
                     std::uint64_t chunk = kNoChunk);

/// Reserves a span id for a span whose children finish before it does.
std::uint64_t open_id();
/// Records a span under an id obtained from open_id().
void record_as(std::uint64_t id, const char* name, Clock::time_point start,
               Clock::time_point end, std::uint64_t parent = 0,
               std::uint64_t chunk = kNoChunk);

/// Writes every recorded span as JSON to `path`; returns the span count.
std::size_t write_spans(const std::string& path);

/// Adds a span per delivery ("chunk", parent `pass_span`) and its "fit" and
/// "coarse_fit" children, which end at the delivery (the engine reports
/// their durations, not their start times).
void record_chunk_spans(const std::vector<RecordingSink::Delivery>& deliveries,
                        std::uint64_t pass_span);

/// A ChunkSource wrapper that records a "source.next_chunk" span per pull
/// when tracing is on (the engine pulls from its prefetch thread).
class TracedSource final : public imrdmd::core::ChunkSource {
 public:
  explicit TracedSource(imrdmd::core::ChunkSource& inner) : inner_(inner) {}
  std::optional<imrdmd::core::Mat> next_chunk() override;
  std::size_t sensors() const override { return inner_.sensors(); }
  std::size_t position() const override { return inner_.position(); }
  void seek(std::size_t snapshot) override { inner_.seek(snapshot); }

 private:
  imrdmd::core::ChunkSource& inner_;
  std::uint64_t pulls_ = 0;
};

}  // namespace perfbench::trace
