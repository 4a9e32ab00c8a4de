// Fleet sharding bench: chunk throughput of the sharded core::Assessor
// topology as the shard (lane) count grows over a fixed group partition.
//
// Workload: G independent sensor groups streaming together as one machine
// (low-rank-plus-noise structure per group, like the telemetry the paper
// ingests). The group partition is held fixed — so every run computes the
// bitwise-identical snapshots, verified here — and only the number of
// concurrent worker lanes varies: 1, 2, 4, ... up to the group count.
// Emits BENCH_fleet.json with the shards-vs-throughput curve; the headline
// figure is speedup at 4 shards vs 1 (expect ~min(4, cores) on an idle
// multi-core box, 1x on a single-core CI runner — hardware_concurrency is
// recorded alongside so the curve can be interpreted).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "core/assessor.hpp"
#include "dist/communicator.hpp"

using namespace imrdmd;

namespace {

// Per-group coherent modes plus deterministic pseudo-noise; groups get
// distinct phases so their models do real, slightly uneven work.
linalg::Mat make_fleet_stream(std::size_t sensors, std::size_t cols) {
  linalg::Mat data(sensors, cols);
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  auto noise = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
  };
  for (std::size_t p = 0; p < sensors; ++p) {
    const double phase = 0.11 * static_cast<double>(p);
    for (std::size_t t = 0; t < cols; ++t) {
      const double x = static_cast<double>(t) / 192.0;
      double value = 48.0 + 4.0 * std::sin(2.0 * M_PI * 0.35 * x + phase);
      value += 1.2 * std::sin(2.0 * M_PI * 5.0 * x + 2.0 * phase);
      value += 0.3 * noise();
      data(p, t) = value;
    }
  }
  return data;
}

struct ShardResult {
  std::size_t shards = 0;
  double seconds = 0.0;
  double chunks_per_sec = 0.0;
  double snapshots_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) try {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::banner(
      "Fleet sharding: per-group I-mrDMD models, global z-score reconciliation",
      "chunk throughput scales with shard lanes; results are shard-count "
      "invariant (bitwise)");

  const std::size_t group_count = args.full ? 16 : 8;
  const std::size_t sensors_per_group = args.full ? 256 : 96;
  const std::size_t initial = args.full ? 512 : 256;
  const std::size_t chunk = args.full ? 256 : 128;
  const std::size_t stream_chunks = args.full ? 8 : 4;
  const std::size_t sensors = group_count * sensors_per_group;
  const std::size_t total = initial + chunk * stream_chunks;
  const std::size_t repeats = std::max<std::size_t>(args.repeats, 1);

  std::printf("workload: %zu sensors in %zu groups, %zu+%zux%zu snapshots, "
              "%zu repeats, hardware_concurrency=%u\n",
              sensors, group_count, initial, stream_chunks, chunk, repeats,
              std::thread::hardware_concurrency());

  const linalg::Mat data = make_fleet_stream(sensors, total);
  const auto groups = core::contiguous_groups(sensors, group_count);

  std::vector<std::size_t> shard_counts{1, 2, 4};
  if (group_count >= 8) shard_counts.push_back(8);
  if (group_count >= 16) shard_counts.push_back(16);

  std::vector<ShardResult> results;
  std::vector<double> reference_z;  // last-chunk z-scores at 1 shard
  bool invariant = true;
  for (std::size_t shards : shard_counts) {
    ShardResult result;
    result.shards = shards;
    double total_seconds = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      core::AssessorConfig config;
      config.pipeline_options.imrdmd.mrdmd.max_levels = 4;
      config.pipeline_options.imrdmd.mrdmd.dt = 15.0;
      config.pipeline_options.baseline = {40.0, 60.0};
      config.sharded(groups, shards).sensors(sensors);
      core::Assessor assessor(config);
      core::MatrixChunkSource source(data, initial, chunk);
      core::CollectingSink sink;
      WallTimer timer;
      assessor.run(source, sink);
      total_seconds += timer.seconds();
      if (rep + 1 == repeats) {
        const auto& z = sink.snapshots().back().zscores.zscores;
        if (reference_z.empty()) {
          reference_z = z;
        } else {
          for (std::size_t i = 0; i < z.size(); ++i) {
            if (z[i] != reference_z[i]) invariant = false;
          }
        }
      }
    }
    result.seconds = total_seconds / static_cast<double>(repeats);
    result.chunks_per_sec =
        static_cast<double>(1 + stream_chunks) / result.seconds;
    result.snapshots_per_sec = static_cast<double>(total) / result.seconds;
    results.push_back(result);
    std::printf("  shards=%-3zu %8.3f s  %8.2f chunks/sec  %10.0f snaps/sec\n",
                result.shards, result.seconds, result.chunks_per_sec,
                result.snapshots_per_sec);
  }

  double speedup_4v1 = 0.0;
  for (const ShardResult& r : results) {
    if (r.shards == 4) speedup_4v1 = results.front().seconds / r.seconds;
  }
  std::printf("\nspeedup 4 shards vs 1: %.2fx  (shard-count invariant: %s)\n",
              speedup_4v1, invariant ? "yes" : "NO");

  // Ranks curve: the same fixed partition spread across SPMD ranks of the
  // distributed driver (one lane per rank, so the concurrency is purely
  // rank-driven), rank 0 ingesting and scattering. The last-chunk
  // z-scores must stay bitwise identical to the single-process runs above.
  std::printf("\ndistributed ranks (1 lane per rank):\n");
  std::vector<ShardResult> rank_results;
  bool rank_invariant = true;
  for (const std::size_t rank_count : {std::size_t{1}, std::size_t{2},
                                       std::size_t{4}}) {
    ShardResult result;
    result.shards = rank_count;
    double total_seconds = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      dist::World world(static_cast<int>(rank_count));
      std::vector<double> z;
      WallTimer timer;
      world.run([&](dist::Communicator& comm) {
        core::AssessorConfig config;
        config.pipeline_options.imrdmd.mrdmd.max_levels = 4;
        config.pipeline_options.imrdmd.mrdmd.dt = 15.0;
        config.pipeline_options.baseline = {40.0, 60.0};
        config.sharded(groups, 1).sensors(sensors).distributed(comm);
        core::Assessor assessor(config);
        std::optional<core::MatrixChunkSource> source;
        if (comm.rank() == 0) source.emplace(data, initial, chunk);
        core::CollectingSink sink;
        assessor.run_until(comm.rank() == 0 ? &*source : nullptr, sink,
                           core::StopCondition{});
        if (comm.rank() == 0) z = sink.snapshots().back().zscores.zscores;
      });
      total_seconds += timer.seconds();
      if (rep + 1 == repeats) {
        for (std::size_t i = 0; i < z.size(); ++i) {
          if (z[i] != reference_z[i]) rank_invariant = false;
        }
      }
    }
    result.seconds = total_seconds / static_cast<double>(repeats);
    result.chunks_per_sec =
        static_cast<double>(1 + stream_chunks) / result.seconds;
    result.snapshots_per_sec = static_cast<double>(total) / result.seconds;
    rank_results.push_back(result);
    std::printf("  ranks=%-3zu  %8.3f s  %8.2f chunks/sec  %10.0f snaps/sec\n",
                result.shards, result.seconds, result.chunks_per_sec,
                result.snapshots_per_sec);
  }
  std::printf("rank-count invariant vs single-process: %s\n",
              rank_invariant ? "yes" : "NO");

  // Wire-bytes curve: the same distributed run under the two delivery
  // modes, summing every rank's communicator byte counter. Scatterv ships
  // each non-root only its owned rows — O(P*T) per chunk regardless of R;
  // per-rank ingestion ships no chunk payload at all. Subtracting the
  // traffic both modes share (the merge allgather) and each mode's
  // per-chunk agreement leaves the payload, which the gate checks exactly.
  std::printf("\nwire bytes per ingestion mode (4 ranks):\n");
  const std::size_t wire_ranks = 4;
  const char* mode_names[2] = {"scatterv", "per_rank"};
  const core::IngestMode modes[2] = {core::IngestMode::Scatterv,
                                     core::IngestMode::PerRank};
  std::uint64_t wire_totals[2] = {0, 0};
  bool wire_invariant = true;
  for (int mode_index = 0; mode_index < 2; ++mode_index) {
    const core::IngestMode mode = modes[mode_index];
    dist::World world(static_cast<int>(wire_ranks));
    std::vector<std::uint64_t> per_rank(wire_ranks, 0);
    std::vector<double> z;
    world.run([&](dist::Communicator& comm) {
      core::AssessorConfig config;
      config.pipeline_options.imrdmd.mrdmd.max_levels = 4;
      config.pipeline_options.imrdmd.mrdmd.dt = 15.0;
      config.pipeline_options.baseline = {40.0, 60.0};
      config.sharded(groups, 1).sensors(sensors).distributed(comm);
      config.ingest_options.with_mode(mode);
      core::Assessor assessor(config);
      std::optional<core::MatrixChunkSource> source;
      std::optional<core::RowSliceSource> slice;
      core::ChunkSource* feed = nullptr;
      if (mode == core::IngestMode::PerRank) {
        source.emplace(data, initial, chunk);
        slice.emplace(*source, assessor.owned_sensor_rows());
        feed = &*slice;
      } else if (comm.rank() == 0) {
        source.emplace(data, initial, chunk);
        feed = &*source;
      }
      comm.reset_wire_bytes();
      core::CollectingSink sink;
      assessor.run_until(feed, sink, core::StopCondition{});
      per_rank[static_cast<std::size_t>(comm.rank())] = comm.wire_bytes();
      if (comm.rank() == 0) z = sink.snapshots().back().zscores.zscores;
    });
    for (const std::uint64_t b : per_rank) {
      wire_totals[mode_index] += b;
    }
    for (std::size_t i = 0; i < z.size(); ++i) {
      if (z[i] != reference_z[i]) wire_invariant = false;
    }
    std::printf("  %-10s %12llu bytes total  %10.0f bytes/chunk\n",
                mode_names[mode_index],
                static_cast<unsigned long long>(wire_totals[mode_index]),
                static_cast<double>(wire_totals[mode_index]) /
                    static_cast<double>(1 + stream_chunks));
  }
  // Shared merge: per chunk, every rank receives each peer's magnitudes
  // and means (2 doubles per sensor) plus an 8-double report per group.
  // Agreement, one round per chunk plus the end-of-stream round: rank 0
  // broadcasts 3 doubles under scatterv; every rank allgathers 3 under
  // per_rank.
  const std::uint64_t chunks_run = 1 + stream_chunks;
  const std::uint64_t merge_bytes = chunks_run * (wire_ranks - 1) *
                                    (2 * sensors + 8 * group_count) * 8;
  const std::uint64_t rounds = chunks_run + 1;
  const std::uint64_t control_bytes[2] = {
      rounds * (wire_ranks - 1) * 3 * 8,
      rounds * wire_ranks * (wire_ranks - 1) * 3 * 8};
  std::uint64_t payload[2] = {0, 0};
  for (int mode_index = 0; mode_index < 2; ++mode_index) {
    payload[mode_index] = wire_totals[mode_index] - merge_bytes -
                          control_bytes[mode_index];
  }
  const auto root_groups = core::rank_group_range(group_count, wire_ranks, 0);
  std::uint64_t root_rows = 0;
  for (std::size_t g = root_groups.first; g < root_groups.second; ++g) {
    root_rows += groups[g].size();
  }
  const std::uint64_t owned_payload =
      (sensors - root_rows) * total * sizeof(double);
  const bool wire_gate = payload[0] == owned_payload && payload[1] == 0;
  std::printf("payload: scatterv %llu bytes (non-root owned rows: %llu), "
              "per_rank %llu bytes: %s (bitwise invariant: %s)\n",
              static_cast<unsigned long long>(payload[0]),
              static_cast<unsigned long long>(owned_payload),
              static_cast<unsigned long long>(payload[1]),
              wire_gate ? "yes" : "NO", wire_invariant ? "yes" : "NO");

  // Prefetch-depth curve: the unified Assessor's bounded ingestion queue
  // over the same fixed partition at a fixed lane count. Depth 0 is fully
  // synchronous, 1 the classic double buffer, deeper queues smooth bursty
  // sources; the last-chunk z-scores must stay bitwise identical to the
  // shard runs above at every depth (the gate this bench exits nonzero
  // on).
  std::printf("\nprefetch depth (4 lanes, bounded queue):\n");
  const std::size_t depth_lanes = std::min<std::size_t>(4, group_count);
  std::vector<ShardResult> depth_results;
  bool depth_invariant = true;
  for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                  std::size_t{2}, std::size_t{4}}) {
    ShardResult result;
    result.shards = depth;
    double total_seconds = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      core::AssessorConfig config;
      config.pipeline_options.imrdmd.mrdmd.max_levels = 4;
      config.pipeline_options.imrdmd.mrdmd.dt = 15.0;
      config.pipeline_options.baseline = {40.0, 60.0};
      config.sharded(groups, depth_lanes).sensors(sensors);
      config.ingest_options.prefetch_depth = depth;
      core::Assessor assessor(config);
      core::MatrixChunkSource source(data, initial, chunk);
      core::CollectingSink sink;
      WallTimer timer;
      assessor.run(source, sink);
      total_seconds += timer.seconds();
      if (rep + 1 == repeats) {
        const auto& z = sink.snapshots().back().zscores.zscores;
        for (std::size_t i = 0; i < z.size(); ++i) {
          if (z[i] != reference_z[i]) depth_invariant = false;
        }
      }
    }
    result.seconds = total_seconds / static_cast<double>(repeats);
    result.chunks_per_sec =
        static_cast<double>(1 + stream_chunks) / result.seconds;
    result.snapshots_per_sec = static_cast<double>(total) / result.seconds;
    depth_results.push_back(result);
    std::printf("  depth=%-3zu  %8.3f s  %8.2f chunks/sec  %10.0f snaps/sec\n",
                result.shards, result.seconds, result.chunks_per_sec,
                result.snapshots_per_sec);
  }
  std::printf("prefetch-depth invariant vs shard runs: %s\n",
              depth_invariant ? "yes" : "NO");

  JsonWriter json;
  json.begin_object();
  json.field("bench", "fleet");
  json.field("mode", args.full ? "full" : "default");
  json.key("workload");
  json.begin_object();
  json.field("sensors", sensors);
  json.field("groups", group_count);
  json.field("initial_snapshots", initial);
  json.field("chunk_snapshots", chunk);
  json.field("stream_chunks", stream_chunks);
  json.field("repeats", repeats);
  json.end_object();
  json.field("hardware_concurrency",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.key("curve");
  json.begin_array();
  for (const ShardResult& r : results) {
    json.begin_object();
    json.field("shards", r.shards);
    json.field("seconds", r.seconds);
    json.field("chunks_per_sec", r.chunks_per_sec);
    json.field("snapshots_per_sec", r.snapshots_per_sec);
    json.field("speedup_vs_1", results.front().seconds / r.seconds);
    json.end_object();
  }
  json.end_array();
  json.field("speedup_4_vs_1", speedup_4v1);
  json.field("shard_count_invariant", invariant);
  json.key("rank_curve");
  json.begin_array();
  for (const ShardResult& r : rank_results) {
    json.begin_object();
    json.field("ranks", r.shards);
    json.field("seconds", r.seconds);
    json.field("chunks_per_sec", r.chunks_per_sec);
    json.field("snapshots_per_sec", r.snapshots_per_sec);
    json.field("speedup_vs_1", rank_results.front().seconds / r.seconds);
    json.end_object();
  }
  json.end_array();
  json.field("rank_count_invariant", rank_invariant);
  json.key("bytes_per_chunk");
  json.begin_array();
  for (int mode_index = 0; mode_index < 2; ++mode_index) {
    json.begin_object();
    json.field("mode", mode_names[mode_index]);
    json.field("ranks", wire_ranks);
    json.field("total_wire_bytes",
               static_cast<std::size_t>(wire_totals[mode_index]));
    json.field("payload_bytes", static_cast<std::size_t>(payload[mode_index]));
    json.field("bytes_per_chunk",
               static_cast<double>(wire_totals[mode_index]) /
                   static_cast<double>(1 + stream_chunks));
    json.end_object();
  }
  json.end_array();
  json.field("scatterv_wire_gate", wire_gate);
  json.key("prefetch_curve");
  json.begin_array();
  for (const ShardResult& r : depth_results) {
    json.begin_object();
    json.field("prefetch_depth", r.shards);
    json.field("seconds", r.seconds);
    json.field("chunks_per_sec", r.chunks_per_sec);
    json.field("snapshots_per_sec", r.snapshots_per_sec);
    json.field("speedup_vs_sync", depth_results.front().seconds / r.seconds);
    json.end_object();
  }
  json.end_array();
  json.field("prefetch_depth_invariant", depth_invariant);
  json.end_object();
  const std::string path = args.out_dir + "/BENCH_fleet.json";
  json.write_file(path);
  std::printf("wrote %s\n", path.c_str());

  return invariant && rank_invariant && depth_invariant && wire_gate &&
                 wire_invariant
             ? 0
             : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
