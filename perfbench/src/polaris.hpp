// Seeded Polaris-shaped inputs shared by the workloads: the GPU-thermal
// sensor model, the pipeline options every engine uses, and per-tenant
// streams covering a few racks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "workloads.hpp"
#include "telemetry/machine.hpp"
#include "telemetry/sensor_model.hpp"

namespace perfbench {

/// GPU thermals as in examples/gpu_fleet, with the given model seed.
imrdmd::telemetry::SensorModelOptions polaris_sensor_options(
    std::uint64_t seed);

/// Pipeline options of every benchmarked engine. mrDMD bins never fan out
/// onto the library's global pool, so only the threads the benchmark sizes
/// compute.
imrdmd::core::PipelineOptions polaris_pipeline_options();

/// Ingestion pinned explicitly (broadcast, one chunk of prefetch).
imrdmd::core::IngestOptions pinned_ingest();

/// Resume options matching an engine built with pinned_ingest().
imrdmd::core::AssessorResumeOptions pinned_resume(
    std::size_t lanes, imrdmd::ThreadPool* pool,
    const imrdmd::core::CheckpointPolicy& checkpoint);

/// One tenant's stream: `racks` consecutive Polaris racks from
/// `first_rack`, generated from `seed`, as a sensors x snapshots matrix,
/// with one group per rack (rows re-indexed to the tenant's own matrix).
struct TenantStream {
  imrdmd::linalg::Mat data;
  std::vector<std::vector<std::size_t>> groups;
};
TenantStream make_tenant_stream(std::uint64_t seed, std::size_t first_rack,
                                std::size_t racks, std::size_t snapshots);

/// Snapshot digests of each stream's uninterrupted run under its config
/// with the checkpoint hook disarmed, one thread per stream: the reference
/// a resumed or socket-fed stream must reproduce bitwise.
std::vector<std::vector<std::uint64_t>> reference_digests(
    std::vector<imrdmd::core::AssessorConfig> configs,
    const std::vector<TenantStream>& streams, std::size_t initial,
    std::size_t width);

/// Adds one engine's model sizes to `layer`: mrdmd.nodes and mrdmd.modes
/// summed over every model (coarse included), isvd.rank_* as maxima.
void add_model_layers(const imrdmd::core::Assessor& engine, LayerValues& layer);

/// Sets the checkpoint.* layer metrics from the saves the sinks saw and the
/// timed checkpoint loads.
void set_checkpoint_layers(
    const std::vector<std::unique_ptr<RecordingSink>>& sinks,
    const std::vector<double>& loads, LayerValues& layer);

/// Standalone probes of the compute layers on a run's stream (`data`, in
/// `groups`, with an initial window and `chunks` chunks of `width`):
///   isvd.update_ms        mean isvd::Isvd::update on the coarse-grid columns
///                         (coarse sensor rows at the level-1 grid stride);
///   mrdmd.partial_fit_ms  mean IncrementalMrdmd::partial_fit of group 0.
void probe_compute_layers(const imrdmd::linalg::Mat& data,
                          const std::vector<std::vector<std::size_t>>& groups,
                          std::size_t stride, std::size_t initial,
                          std::size_t width, std::size_t chunks,
                          LayerValues& layer);

}  // namespace perfbench
