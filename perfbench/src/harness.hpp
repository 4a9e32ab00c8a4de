// Shared pieces of the end-to-end benchmark driver: arguments, the result
// record, statistics, resource probes, snapshot digests, and the recording
// sink every workload delivers into.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/assessor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

/// Every knob a run used, printed beside its result.
class Settings {
 public:
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, double value);
  std::string to_json() const;
  bool empty() const { return fields_.empty(); }

 private:
  std::map<std::string, std::string> fields_;  // key -> JSON literal
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  bool correct() const { return failures.empty() && failed == 0; }
  /// Records a failed check charged to `chunks` operations (at least one).
  void fail(std::size_t chunks, const std::string& why);
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  std::string to_json() const;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Resets the kernel's resident-set high-water mark to the current RSS.
void reset_peak_rss();
/// VmHWM of this process in MiB.
double peak_rss_mib();

/// FNV-1a 64 over the bits of every result field of a snapshot (the fields
/// the repository's bitwise resume gates compare; timings excluded).
std::uint64_t snapshot_digest(const imrdmd::core::AssessmentSnapshot& s);

/// Deterministic per-workload stream seeds derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Removes `path` and every file in its directory whose name starts with
/// the file name of `path` (checkpoint part files, temporaries).
void remove_with_parts(const std::string& path);
/// Bytes of `path` plus its checkpoint part files.
std::uint64_t bytes_with_parts(const std::string& path);

/// Per-engine delivery record: the terminal sink of every workload. Checks
/// that chunk indices arrive exactly once and in order, digests each
/// snapshot, and stamps delivery times. Thread-safe against one writer and
/// any number of readers.
class RecordingSink final : public imrdmd::core::SnapshotSink {
 public:
  struct Delivery {
    std::size_t chunk_index = 0;
    std::size_t chunk_snapshots = 0;
    std::uint64_t digest = 0;
    Clock::time_point at;
    double fit_seconds = 0.0;
    double coarse_fit_seconds = 0.0;
    std::size_t segment = 0;  // deliveries of one engine lifetime
  };
  struct Save {
    std::size_t chunk_index = 0;
    double seconds = 0.0;  // last delivery -> on_checkpoint_written
    std::uint64_t bytes = 0;
  };

  /// `expect_next` is the chunk index the first delivery must carry.
  explicit RecordingSink(std::size_t expect_next = 0)
      : expect_next_(expect_next) {}

  using imrdmd::core::SnapshotSink::on_snapshot;
  bool on_snapshot(const imrdmd::core::AssessmentSnapshot& s) override;
  void on_checkpoint_written(const std::string& path,
                             std::size_t chunk_index) override;

  /// Snapshot of the deliveries so far (copy; safe while delivering).
  std::vector<Delivery> deliveries() const;
  std::vector<Save> saves() const;
  std::size_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  /// Out-of-order or duplicate deliveries seen.
  std::size_t order_errors() const;
  /// Starts a new segment: the next delivery comes from a restored engine,
  /// so the gap before it is not service time.
  void begin_segment();
  /// Keeps the last delivered snapshot whole (for output checks).
  void keep_last(bool keep) { keep_last_ = keep; }
  imrdmd::core::AssessmentSnapshot last() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Delivery> deliveries_;
  std::vector<Save> saves_;
  std::size_t expect_next_ = 0;
  std::size_t order_errors_ = 0;
  std::size_t segment_ = 0;
  std::uint64_t part_bytes_seen_ = 0;
  bool keep_last_ = false;
  imrdmd::core::AssessmentSnapshot last_;
  std::atomic<std::size_t> delivered_{0};
};

/// Service time per chunk of one engine: gaps between consecutive
/// deliveries of one segment, in ms (the initial fit and the first chunk
/// after a restore have no gap).
std::vector<double> delivery_gaps_ms(
    const std::vector<RecordingSink::Delivery>& deliveries);

/// Compares a delivered stream against reference digests indexed by chunk.
/// Returns the number of mismatching or missing chunks.
std::size_t count_digest_mismatches(
    const std::vector<RecordingSink::Delivery>& deliveries,
    const std::vector<std::uint64_t>& reference);

/// End-to-end timings of one pass.
struct PassTimes {
  double setup_s = 0.0;
  double snapshots_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  std::size_t latency_samples = 0;
  std::vector<double> restore_s;
};

/// Medians over passes -> the six end-to-end metrics.
void add_end_to_end(Outcome& outcome, const std::vector<PassTimes>& passes,
                    const std::vector<double>& extra_setups, double rss_mib,
                    Settings& settings);

}  // namespace perfbench
