#include "polaris.hpp"

#include <algorithm>
#include <numeric>
#include <thread>

#include "core/imrdmd.hpp"
#include "core/model_stack.hpp"
#include "isvd/isvd.hpp"
#include "telemetry/sharded_env.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace imrdmd;

telemetry::SensorModelOptions polaris_sensor_options(std::uint64_t seed) {
  telemetry::SensorModelOptions options;
  options.base_temp_c = 52.0;
  options.channel_step_c = 2.0;
  options.oscillation_period_s = 90.0;
  options.seed = seed;
  return options;
}

core::PipelineOptions polaris_pipeline_options() {
  core::PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = telemetry::MachineSpec::polaris().dt_seconds;
  options.imrdmd.mrdmd.parallel_bins = false;
  options.baseline = {48.0, 62.0};
  options.band.max_frequency_hz = 0.2;
  return options;
}

core::IngestOptions pinned_ingest() {
  core::IngestOptions options;
  options.prefetch_depth = 1;
  return options.with_mode(core::IngestMode::Broadcast);
}

core::AssessorResumeOptions pinned_resume(
    std::size_t lanes, ThreadPool* pool,
    const core::CheckpointPolicy& checkpoint) {
  core::AssessorResumeOptions resume;
  resume.lanes = lanes;
  resume.pool = pool;
  resume.ingest = pinned_ingest();
  resume.checkpoint = checkpoint;
  return resume;
}

TenantStream make_tenant_stream(std::uint64_t seed, std::size_t first_rack,
                                std::size_t racks, std::size_t snapshots) {
  const telemetry::MachineSpec spec = telemetry::MachineSpec::polaris();
  const telemetry::SensorModel model(spec, polaris_sensor_options(seed));
  const auto machine_groups = telemetry::rack_groups(spec);
  TenantStream stream;
  std::vector<std::size_t> sensors;
  for (std::size_t r = first_rack; r < first_rack + racks; ++r) {
    std::vector<std::size_t> group;
    for (std::size_t sensor : machine_groups.at(r)) {
      group.push_back(sensors.size());
      sensors.push_back(sensor);
    }
    stream.groups.push_back(std::move(group));
  }
  stream.data = model.window_for(sensors, 0, snapshots);
  return stream;
}

namespace {

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

linalg::Mat gather(const linalg::Mat& data, const std::vector<std::size_t>& rows,
                   const std::vector<std::size_t>& cols) {
  linalg::Mat block(rows.size(), cols.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      block(r, c) = data(rows[r], cols[c]);
    }
  }
  return block;
}

std::vector<std::size_t> column_range(std::size_t t0, std::size_t t1,
                                      std::size_t step) {
  std::vector<std::size_t> cols;
  for (std::size_t t = t0; t < t1; ++t) {
    if (t % step == 0) cols.push_back(t);
  }
  return cols;
}

}  // namespace

std::vector<std::vector<std::uint64_t>> reference_digests(
    std::vector<core::AssessorConfig> configs,
    const std::vector<TenantStream>& streams, std::size_t initial,
    std::size_t width) {
  std::vector<std::vector<std::uint64_t>> digests(streams.size());
  std::vector<std::thread> runners;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    runners.emplace_back([&, k] {
      configs[k].checkpoint_policy.every_n = 0;
      configs[k].checkpoint_policy.path.clear();
      core::Assessor engine(configs[k]);
      core::MatrixChunkSource source(streams[k].data, initial, width);
      RecordingSink sink;
      engine.run(source, sink);
      for (const auto& d : sink.deliveries()) digests[k].push_back(d.digest);
    });
  }
  for (std::thread& runner : runners) runner.join();
  return digests;
}

void add_model_layers(const core::Assessor& engine, LayerValues& layer) {
  const auto add = [&layer](const core::IncrementalMrdmd& model,
                            const char* rank_metric) {
    layer["mrdmd.nodes"] += static_cast<double>(model.nodes().size());
    layer["mrdmd.modes"] += static_cast<double>(model.total_modes());
    double& rank = layer[rank_metric];
    rank = std::max(rank, static_cast<double>(model.level1_rank()));
  };
  for (std::size_t g = 0; g < engine.group_count(); ++g) {
    add(engine.model(g), "isvd.rank_fine_max");
  }
  if (engine.hierarchical()) add(engine.coarse_model(), "isvd.rank_coarse");
}

void set_checkpoint_layers(
    const std::vector<std::unique_ptr<RecordingSink>>& sinks,
    const std::vector<double>& loads, LayerValues& layer) {
  double saves = 0.0, seconds = 0.0, bytes = 0.0;
  for (const auto& sink : sinks) {
    for (const RecordingSink::Save& save : sink->saves()) {
      saves += 1.0;
      seconds += save.seconds;
      bytes += static_cast<double>(save.bytes);
    }
  }
  layer["checkpoint.saves"] = saves;
  layer["checkpoint.save_s"] = saves > 0.0 ? seconds / saves : 0.0;
  layer["checkpoint.bytes_written"] = bytes;
  layer["checkpoint.load_s"] = median(loads);
}

void probe_compute_layers(const linalg::Mat& data,
                          const std::vector<std::vector<std::size_t>>& groups,
                          std::size_t stride, std::size_t initial,
                          std::size_t width, std::size_t chunks,
                          LayerValues& layer) {
  const core::ImrdmdOptions options = polaris_pipeline_options().imrdmd;
  const std::vector<std::size_t> coarse_rows =
      core::ModelStack::coarse_grid(groups, stride);
  const std::size_t step = initial / options.mrdmd.nyquist_snapshots();
  isvd::Isvd svd(options.isvd);
  svd.initialize(gather(data, coarse_rows, column_range(0, initial, step)));
  std::vector<double> update_ms;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t t0 = initial + c * width;
    const std::vector<std::size_t> cols = column_range(t0, t0 + width, step);
    if (cols.empty()) continue;
    const linalg::Mat block = gather(data, coarse_rows, cols);
    const Clock::time_point a = Clock::now();
    svd.update(block);
    const Clock::time_point b = Clock::now();
    trace::record("isvd.update", a, b, 0, c + 1);
    update_ms.push_back(1e3 * seconds_between(a, b));
  }
  layer["isvd.update_ms"] = mean(update_ms);

  const std::vector<std::size_t>& group = groups.front();
  std::vector<std::size_t> all_cols(initial);
  std::iota(all_cols.begin(), all_cols.end(), std::size_t{0});
  core::IncrementalMrdmd model(options);
  model.initial_fit(gather(data, group, all_cols));
  std::vector<double> fit_ms;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<std::size_t> cols(width);
    std::iota(cols.begin(), cols.end(), initial + c * width);
    const linalg::Mat chunk = gather(data, group, cols);
    const Clock::time_point a = Clock::now();
    model.partial_fit(chunk);
    const Clock::time_point b = Clock::now();
    trace::record("mrdmd.partial_fit", a, b, 0, c + 1);
    fit_ms.push_back(1e3 * seconds_between(a, b));
  }
  layer["mrdmd.partial_fit_ms"] = mean(fit_ms);
}

}  // namespace perfbench
