// Fleet checkpoint bench: save/load throughput of the fleet checkpoint
// container as the group count grows over a fixed sensor population.
//
// Workload: the bench_fleet-style synthetic stream partitioned into G
// contiguous groups, streamed into a core::Assessor, then checkpointed.
// Per-group model images are serialized concurrently across the fleet's
// worker lanes and concatenated in deterministic group order, so more
// groups mean more lane parallelism during save (and smaller per-group
// models) at a roughly constant total byte size. Emits
// BENCH_checkpoint.json with the groups-vs-throughput curve; the fidelity
// gate is that re-serializing a loaded checkpoint reproduces the container
// byte for byte (exit status reflects it).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "core/assessor.hpp"
#include "core/checkpoint.hpp"

using namespace imrdmd;

namespace {

// Per-group coherent modes plus deterministic pseudo-noise (the same
// low-rank-plus-noise structure the fleet bench streams).
linalg::Mat make_fleet_stream(std::size_t sensors, std::size_t cols) {
  linalg::Mat data(sensors, cols);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto noise = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
  };
  for (std::size_t p = 0; p < sensors; ++p) {
    const double phase = 0.13 * static_cast<double>(p);
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

struct GroupResult {
  std::size_t groups = 0;
  std::size_t bytes = 0;
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  double save_mb_per_sec = 0.0;
  double load_mb_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) try {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::banner(
      "Fleet checkpoint container: parallel per-group sections, atomic files",
      "save/load throughput holds as the group count grows; a loaded "
      "checkpoint re-serializes byte-identically");

  const std::size_t sensors = args.full ? 2048 : 512;
  const std::size_t initial = args.full ? 512 : 256;
  const std::size_t chunk = args.full ? 256 : 128;
  const std::size_t stream_chunks = 2;
  const std::size_t total = initial + chunk * stream_chunks;
  const std::size_t repeats = std::max<std::size_t>(args.repeats, 1);

  std::printf("workload: %zu sensors, %zu+%zux%zu snapshots, %zu repeats, "
              "hardware_concurrency=%u\n",
              sensors, initial, stream_chunks, chunk, repeats,
              std::thread::hardware_concurrency());

  const linalg::Mat data = make_fleet_stream(sensors, total);

  std::vector<std::size_t> group_counts{1, 2, 4};
  if (sensors >= 512) group_counts.push_back(8);

  std::vector<GroupResult> results;
  bool resave_identical = true;
  for (std::size_t group_count : group_counts) {
    core::AssessorConfig config;
    config.pipeline_options.imrdmd.mrdmd.max_levels = 4;
    config.pipeline_options.imrdmd.mrdmd.dt = 15.0;
    config.pipeline_options.baseline = {40.0, 60.0};
    config.sharded(core::contiguous_groups(sensors, group_count))
        .sensors(sensors);
    core::Assessor assessor(config);
    core::MatrixChunkSource source(data, initial, chunk);
    core::CollectingSink sink;
    assessor.run(source, sink);

    GroupResult result;
    result.groups = group_count;
    std::string bytes;
    {
      double save_total = 0.0;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        std::ostringstream buffer;
        WallTimer timer;
        core::save_assessor_checkpoint(buffer, assessor);
        save_total += timer.seconds();
        if (rep + 1 == repeats) bytes = buffer.str();
      }
      result.save_seconds = save_total / static_cast<double>(repeats);
    }
    result.bytes = bytes.size();
    {
      double load_total = 0.0;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        std::istringstream buffer(bytes);
        WallTimer timer;
        core::RestoredAssessor restored =
            core::load_assessor_checkpoint(buffer);
        load_total += timer.seconds();
        if (rep + 1 == repeats) {
          std::ostringstream resaved;
          core::save_assessor_checkpoint(resaved, restored.assessor);
          if (resaved.str() != bytes) resave_identical = false;
        }
      }
      result.load_seconds = load_total / static_cast<double>(repeats);
    }
    const double mb = static_cast<double>(result.bytes) / (1024.0 * 1024.0);
    result.save_mb_per_sec = mb / result.save_seconds;
    result.load_mb_per_sec = mb / result.load_seconds;
    results.push_back(result);
    std::printf(
        "  groups=%-3zu %8.2f KiB  save %8.3f ms (%7.1f MiB/s)  load %8.3f "
        "ms (%7.1f MiB/s)\n",
        result.groups, static_cast<double>(result.bytes) / 1024.0,
        result.save_seconds * 1e3, result.save_mb_per_sec,
        result.load_seconds * 1e3, result.load_mb_per_sec);
  }

  std::printf("\nresave byte-identical: %s\n",
              resave_identical ? "yes" : "NO");

  // Delta curve: per-checkpoint save cost as the stream grows, full save
  // (re-serializes every model each time) vs the rank-local delta save
  // (appends the chunk's raw rows to an epoch-named part). The delta's
  // append cost — time and bytes — must stay flat at O(chunk) while the
  // full save scales with the model state.
  std::printf("\nper-checkpoint save cost, full vs delta container:\n");
  const std::size_t delta_chunks = args.full ? 10 : 6;
  const std::size_t delta_groups = 8;
  const linalg::Mat delta_data =
      make_fleet_stream(sensors, initial + chunk * delta_chunks);
  const std::string full_path = args.out_dir + "/bench_full.ckpt";
  const std::string delta_path = args.out_dir + "/bench_delta.ckpt";
  const std::string delta_part = delta_path + ".r0.e1";
  std::remove(full_path.c_str());
  std::remove(delta_path.c_str());
  for (int e = 1; e <= 2; ++e) {
    std::remove((delta_path + ".r0.e" + std::to_string(e)).c_str());
  }

  auto delta_config = [&](bool delta) {
    core::AssessorConfig config;
    config.pipeline_options.imrdmd.mrdmd.max_levels = 4;
    config.pipeline_options.imrdmd.mrdmd.dt = 15.0;
    config.pipeline_options.baseline = {40.0, 60.0};
    config.sharded(core::contiguous_groups(sensors, delta_groups))
        .sensors(sensors);
    config.checkpoint_policy.with_delta(delta);
    return config;
  };
  core::Assessor full_engine(delta_config(false));
  core::Assessor delta_engine(delta_config(true));

  struct DeltaPoint {
    std::size_t chunk_index = 0;
    double full_seconds = 0.0;
    double delta_seconds = 0.0;
    std::uintmax_t full_bytes = 0;
    std::uintmax_t delta_bytes = 0;
  };
  std::vector<DeltaPoint> delta_points;
  auto file_bytes = [](const std::string& p) -> std::uintmax_t {
    std::error_code ec;
    const std::uintmax_t n = std::filesystem::file_size(p, ec);
    return ec ? 0 : n;
  };
  std::uintmax_t last_part_bytes = 0;
  for (std::size_t c = 0; c <= delta_chunks; ++c) {
    const std::size_t at = c == 0 ? 0 : initial + (c - 1) * chunk;
    const std::size_t width = c == 0 ? initial : chunk;
    const linalg::Mat window =
        delta_data.block(0, at, sensors, width);
    full_engine.process(window);
    delta_engine.process(window);

    DeltaPoint point;
    point.chunk_index = c;
    {
      WallTimer timer;
      core::save_assessor_checkpoint_file(full_path, full_engine);
      point.full_seconds = timer.seconds();
    }
    point.full_bytes = file_bytes(full_path);
    {
      WallTimer timer;
      core::save_assessor_checkpoint_file(delta_path, delta_engine);
      point.delta_seconds = timer.seconds();
    }
    const std::uintmax_t part_now = file_bytes(delta_part);
    point.delta_bytes =
        c == 0 ? part_now + file_bytes(delta_path) : part_now - last_part_bytes;
    last_part_bytes = part_now;
    delta_points.push_back(point);
    std::printf("  chunk=%-3zu full %8.3f ms / %8.1f KiB   delta %8.3f ms / "
                "%8.1f KiB written\n",
                c, point.full_seconds * 1e3,
                static_cast<double>(point.full_bytes) / 1024.0,
                point.delta_seconds * 1e3,
                static_cast<double>(point.delta_bytes) / 1024.0);
  }
  // Gates: the delta appends (past the base write) stay under the full
  // container's byte cost and do not grow with the stream.
  bool delta_flat = true;
  for (std::size_t c = 2; c < delta_points.size(); ++c) {
    if (delta_points[c].delta_bytes >
        2 * delta_points[1].delta_bytes + 4096) {
      delta_flat = false;
    }
    if (delta_points[c].delta_bytes >= delta_points[c].full_bytes) {
      delta_flat = false;
    }
  }
  // Fidelity: the delta container restores to the same engine.
  bool delta_matches = true;
  {
    core::RestoredAssessor restored =
        core::load_assessor_checkpoint_file(delta_path);
    const linalg::Mat probe = delta_data.block(
        0, delta_data.cols() - chunk, sensors, chunk);
    // Both engines saw the identical stream; replaying one more (repeated)
    // chunk through each must produce identical results.
    const auto a = full_engine.process(probe);
    const auto b = restored.assessor.process(probe);
    if (a.magnitudes != b.magnitudes ||
        a.zscores.zscores != b.zscores.zscores) {
      delta_matches = false;
    }
  }
  std::printf("delta append cost flat: %s   delta restore bitwise: %s\n",
              delta_flat ? "yes" : "NO", delta_matches ? "yes" : "NO");
  std::remove(full_path.c_str());
  std::remove(delta_path.c_str());
  for (int e = 1; e <= 2; ++e) {
    std::remove((delta_path + ".r0.e" + std::to_string(e)).c_str());
  }

  JsonWriter json;
  json.begin_object();
  json.field("bench", "checkpoint");
  json.field("mode", args.full ? "full" : "default");
  json.key("workload");
  json.begin_object();
  json.field("sensors", sensors);
  json.field("initial_snapshots", initial);
  json.field("chunk_snapshots", chunk);
  json.field("stream_chunks", stream_chunks);
  json.field("repeats", repeats);
  json.end_object();
  json.field("hardware_concurrency",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.key("curve");
  json.begin_array();
  for (const GroupResult& r : results) {
    json.begin_object();
    json.field("groups", r.groups);
    json.field("bytes", r.bytes);
    json.field("save_seconds", r.save_seconds);
    json.field("load_seconds", r.load_seconds);
    json.field("save_mb_per_sec", r.save_mb_per_sec);
    json.field("load_mb_per_sec", r.load_mb_per_sec);
    json.end_object();
  }
  json.end_array();
  json.field("resave_identical", resave_identical);
  json.key("delta_curve");
  json.begin_array();
  for (const DeltaPoint& p : delta_points) {
    json.begin_object();
    json.field("chunk", p.chunk_index);
    json.field("full_save_seconds", p.full_seconds);
    json.field("full_bytes", static_cast<std::size_t>(p.full_bytes));
    json.field("delta_save_seconds", p.delta_seconds);
    json.field("delta_bytes_written",
               static_cast<std::size_t>(p.delta_bytes));
    json.end_object();
  }
  json.end_array();
  json.field("delta_append_flat", delta_flat);
  json.field("delta_restore_identical", delta_matches);
  json.end_object();
  const std::string path = args.out_dir + "/BENCH_checkpoint.json";
  json.write_file(path);
  std::printf("wrote %s\n", path.c_str());

  return resave_identical && delta_flat && delta_matches ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
