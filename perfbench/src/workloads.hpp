// The benchmark's workloads behind one interface. Each workload generates
// its inputs from the seed in its constructor (before any clock starts),
// then runs fixed-size passes on demand; the driver (main.cpp) repeats
// passes for the run's time budget and reports medians over them.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

enum class PassKind {
  Untraced,    // the measured configuration, tracing off
  Traced,      // same work with the forwarding backend and spans on
  SingleLane,  // same work on one lane: the lane-scaling baseline
};

/// Per-layer values of one pass, keyed by per-layer metric name.
using LayerValues = std::map<std::string, double>;

struct PassResult {
  PassTimes times;
  LayerValues layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Records every setting the workload pins.
  virtual void describe(Settings& settings) const = 0;
  /// Runs one fixed-size pass; failed checks go to `outcome`.
  virtual PassResult run_pass(PassKind kind, Outcome& outcome) = 0;
  /// True when a SingleLane pass is meaningful (a multi-lane engine).
  virtual bool has_single_lane_baseline() const { return false; }
  /// One extra set-up measurement (s), or a negative value when the
  /// workload's passes are its only set-ups.
  virtual double setup_trial(Outcome& outcome) {
    (void)outcome;
    return -1.0;
  }
  /// Records what the passes observed beside the metrics: outputs worth
  /// reading that no bound gates.
  virtual void observe(Settings& observed) const { (void)observed; }
  /// Standalone layer probes for the traced run (after the passes).
  virtual void probe_layers(LayerValues& layer, Outcome& outcome) {
    (void)layer;
    (void)outcome;
  }
};

std::unique_ptr<Workload> make_replay_polaris(const Args& args);
std::unique_ptr<Workload> make_wire_live(const Args& args);
std::unique_ptr<Workload> make_tenants_ckpt(const Args& args);

/// The pinned linalg backend (QR and SVD are the reference kernels).
inline constexpr const char* kPinnedBackend = "avx2";

}  // namespace perfbench
