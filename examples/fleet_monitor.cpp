// Fleet monitor: the fleet-scale deployment story as a terminal app, on
// the unified core::Assessor API.
//
// Simulates a testbed machine with injected faults, derives one sensor
// group per rack (telemetry::ShardedEnvSource), and configures ONE
// assessment engine: one cheap I-mrDMD per rack updated concurrently
// across worker lanes with depth-N bounded-queue chunk prefetch, reconciled
// through one global baseline/z-score stage. Results STREAM out through a
// SnapshotSink — the monitor prints each snapshot as it is delivered (and,
// with --jsonl PATH, tees machine-readable JSON Lines through a JsonlSink)
// instead of accumulating a vector.
//
// With --ranks N the same engine runs distributed
// (AssessorConfig::distributed over a thread-SPMD dist::World): each rank
// owns a contiguous slice of the rack groups, rank 0 ingests and
// scatters each rank its rows, and output is bitwise identical to the
// single-process run for any N.
//
// Durability: with --checkpoint PATH the engine's run loop atomically
// rewrites PATH after every --every N-th chunk; kill the process at any
// point and rerun with --resume to continue from the latest checkpoint —
// the resumed run's snapshots are bitwise identical to the uninterrupted
// run's, and the checkpoint is portable across --ranks values. Restate the
// original --chunks on resume: the horizon shapes the simulated stream
// (fault windows included), so a different value would replay a different
// machine. Try:
//
//   fleet_monitor --checkpoint /tmp/fleet.ckpt --every 1 --chunks 2
//   fleet_monitor --ranks 3 --checkpoint /tmp/fleet.ckpt --resume --chunks 2
//
// Usage: fleet_monitor [--shards N] [--ranks N] [--chunks N] [--depth N]
//                      [--sync] [--jsonl PATH] [--checkpoint PATH]
//                      [--every N] [--resume]
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/strings.hpp"
#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/sinks.hpp"
#include "dist/communicator.hpp"
#include "telemetry/sharded_env.hpp"

using namespace imrdmd;

namespace {

/// Prints each snapshot as it streams out of the engine, optionally
/// teeing every event into a JsonlSink — a custom SnapshotSink is a small
/// struct, not a subsystem.
class MonitorSink final : public core::SnapshotSink {
 public:
  MonitorSink(bool print, core::JsonlSink* jsonl)
      : print_(print), jsonl_(jsonl) {}

  using core::SnapshotSink::on_snapshot;
  bool on_snapshot(const core::AssessmentSnapshot& snapshot) override {
    if (print_) {
      std::printf("\nchunk %zu: %zu snapshots (total %zu), fit %.3fs\n",
                  snapshot.chunk_index, snapshot.chunk_snapshots,
                  snapshot.total_snapshots, snapshot.fit_seconds);
      for (std::size_t g = 0; g < snapshot.reports.size(); ++g) {
        std::printf("  rack %zu: +%zu nodes, drift %.3g\n", g,
                    snapshot.reports[g].new_nodes,
                    snapshot.reports[g].drift_estimate);
      }
      const auto hot =
          snapshot.zscores.sensors_in_state(core::ThermalState::Hot);
      const auto cold =
          snapshot.zscores.sensors_in_state(core::ThermalState::Cold);
      std::printf("  census: %zu hot, %zu cold, baseline population %zu\n",
                  hot.size(), cold.size(),
                  snapshot.zscores.baseline_sensors.size());
      for (std::size_t sensor : hot) {
        std::printf("    HOT sensor %zu  z=%.2f\n", sensor,
                    snapshot.zscores.zscores[sensor]);
      }
    }
    if (jsonl_ != nullptr) jsonl_->on_snapshot(snapshot);
    return true;
  }

  void on_checkpoint_written(const std::string& path,
                             std::size_t chunk_index) override {
    if (jsonl_ != nullptr) jsonl_->on_checkpoint_written(path, chunk_index);
  }

  void on_end(const core::RunSummary& summary) override {
    if (jsonl_ != nullptr) jsonl_->on_end(summary);
  }

 private:
  bool print_;
  core::JsonlSink* jsonl_;
};

}  // namespace

int main(int argc, char** argv) try {
  std::size_t shards = 0;  // 0 = one lane per (local) rack group
  std::size_t ranks = 1;
  std::size_t chunks = 4;
  std::size_t depth = 1;  // bounded prefetch queue depth
  std::string jsonl_path;
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--shards") && i + 1 < argc) {
      shards = static_cast<std::size_t>(parse_long(argv[++i], "--shards"));
    } else if (!std::strcmp(argv[i], "--ranks") && i + 1 < argc) {
      ranks = static_cast<std::size_t>(parse_long(argv[++i], "--ranks"));
    } else if (!std::strcmp(argv[i], "--chunks") && i + 1 < argc) {
      chunks = static_cast<std::size_t>(parse_long(argv[++i], "--chunks"));
    } else if (!std::strcmp(argv[i], "--depth") && i + 1 < argc) {
      depth = static_cast<std::size_t>(parse_long(argv[++i], "--depth"));
    } else if (!std::strcmp(argv[i], "--sync")) {
      depth = 0;
    } else if (!std::strcmp(argv[i], "--jsonl") && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--checkpoint") && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--every") && i + 1 < argc) {
      checkpoint_every =
          static_cast<std::size_t>(parse_long(argv[++i], "--every"));
    } else if (!std::strcmp(argv[i], "--resume")) {
      resume = true;
    } else {
      std::printf(
          "usage: %s [--shards N] [--ranks N] [--chunks N] [--depth N] "
          "[--sync] [--jsonl PATH] [--checkpoint PATH] [--every N] "
          "[--resume]\n",
          argv[0]);
      return 2;
    }
  }
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint PATH\n");
    return 2;
  }
  if (ranks == 0) {
    std::fprintf(stderr, "error: --ranks must be at least 1\n");
    return 2;
  }

  const telemetry::MachineSpec spec = telemetry::MachineSpec::testbed();
  telemetry::SensorModel model(spec);
  const std::size_t horizon = 256 + 64 * chunks;
  telemetry::FaultSpec overheat;
  overheat.kind = telemetry::FaultSpec::Kind::Overheat;
  overheat.node = 9;
  overheat.t_begin = 0;
  overheat.t_end = horizon;
  overheat.magnitude = 12.0;
  model.add_fault(overheat);
  telemetry::FaultSpec stall;
  stall.kind = telemetry::FaultSpec::Kind::Stall;
  stall.node = 40;
  stall.t_begin = 0;
  stall.t_end = horizon;
  model.add_fault(stall);

  telemetry::ShardedEnvOptions source_options;
  source_options.stream.initial_snapshots = 256;
  source_options.stream.chunk_snapshots = 64;
  source_options.stream.total_snapshots = horizon;
  telemetry::ShardedEnvSource source(model, source_options);

  core::CheckpointPolicy policy;
  policy.every_n = checkpoint_path.empty() ? 0 : checkpoint_every;
  policy.path = checkpoint_path;

  core::PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 4;
  pipeline.imrdmd.mrdmd.dt = spec.dt_seconds;
  pipeline.baseline = {40.0, 60.0};

  core::IngestOptions ingest;
  ingest.prefetch_depth = depth;

  const auto run_world = [&](dist::Communicator* comm) -> int {
    const bool root = comm == nullptr || comm->rank() == 0;
    std::optional<core::Assessor> assessor;
    if (resume) {
      // Continue from the latest complete checkpoint: restore the engine
      // and reposition the telemetry stream at the recorded snapshot
      // index. The same bytes resume at any --ranks.
      core::AssessorResumeOptions resume_options;
      resume_options.lanes = shards;
      resume_options.ingest = ingest;
      resume_options.checkpoint = policy;
      core::RestoredAssessor restored =
          comm == nullptr
              ? core::load_assessor_checkpoint_file(checkpoint_path,
                                                    resume_options)
              : core::load_assessor_checkpoint_file(checkpoint_path, *comm,
                                                    resume_options);
      if (restored.stream_position > horizon) {
        if (root) {
          std::fprintf(
              stderr,
              "error: checkpoint is at snapshot %llu but --chunks %zu "
              "only spans %zu; restate the original run's --chunks\n",
              static_cast<unsigned long long>(restored.stream_position),
              chunks, horizon);
        }
        return 2;
      }
      if (root) {
        source.seek(static_cast<std::size_t>(restored.stream_position));
        std::printf("resumed from %s: chunk %zu, snapshot %llu of %zu\n",
                    checkpoint_path.c_str(),
                    restored.assessor.chunks_processed(),
                    static_cast<unsigned long long>(
                        restored.stream_position),
                    horizon);
      }
      assessor.emplace(std::move(restored.assessor));
    } else {
      core::AssessorConfig config;
      config.pipeline(pipeline)
          .sharded(source.groups(), shards)
          .sensors(source.sensors())
          .checkpoint(policy)
          .ingest(ingest);
      if (comm != nullptr) config.distributed(*comm);
      assessor.emplace(std::move(config));
    }

    if (root) {
      std::printf(
          "fleet: %s, %zu sensors in %zu rack groups, %d rank(s) (this "
          "rank: groups [%zu, %zu), %zu lanes), prefetch depth %zu%s%s\n",
          spec.name.c_str(), source.sensors(), assessor->group_count(),
          assessor->ranks(), assessor->local_groups().first,
          assessor->local_groups().second, assessor->lanes(), depth,
          policy.every_n > 0 ? ", checkpointing" : "",
          jsonl_path.empty() ? "" : ", jsonl");
    }

    // Every rank streams the identical snapshots; only the root prints
    // and writes JSONL.
    std::unique_ptr<core::JsonlSink> jsonl;
    if (root && !jsonl_path.empty()) {
      jsonl = std::make_unique<core::JsonlSink>(jsonl_path);
    }
    MonitorSink sink(root, jsonl.get());
    assessor->run_until(root ? &source : nullptr, sink,
                        core::StopCondition{});
    return 0;
  };

  int status = 0;
  if (ranks > 1) {
    dist::World world(static_cast<int>(ranks));
    world.run([&](dist::Communicator& comm) {
      const int rank_status = run_world(&comm);
      if (comm.rank() == 0) status = rank_status;
    });
  } else {
    status = run_world(nullptr);
  }
  if (status == 0 && policy.every_n > 0) {
    std::printf(
        "\nlatest checkpoint: %s (kill + --resume continues here, at any "
        "--ranks)\n",
        checkpoint_path.c_str());
  }
  if (status == 0 && !jsonl_path.empty()) {
    std::printf("jsonl stream: %s\n", jsonl_path.c_str());
  }
  return status;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
