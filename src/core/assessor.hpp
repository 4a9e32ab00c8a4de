// The unified streaming assessment engine (paper Sec. I contribution list
// and Sec. V): stream -> I-mrDMD -> frequency isolation -> baseline
// z-scores, behind ONE run loop for every execution topology.
//
// The paper contributes one incremental assessment scheme; Peherstorfer et
// al.'s multifidelity survey frames the monolithic, sharded, and
// distributed deployments of it as the same scheme at different
// fidelities/topologies. core::Assessor is that scheme as a single engine:
//
//   * an AssessorConfig builder selects the topology — monolithic() (one
//     model over every sensor), sharded(groups, lanes) (one cheap model per
//     sensor group, spread across worker lanes), distributed(comm) (groups
//     spread across SPMD ranks) — plus the checkpoint and ingestion
//     policies;
//   * ONE run loop owns prefetch (a backpressure-aware depth-N bounded
//     queue), the carry/parking no-data-loss discipline, and the periodic
//     checkpoint hook, for all three topologies;
//   * results stream out through a push-based SnapshotSink observer instead
//     of an accumulated std::vector, so the sinks hold bounded memory on an
//     unbounded stream. The models do not: each gains about one mrDMD node
//     per chunk, so model state and per-chunk cost grow with the stream.
//
// Model layer: a composable two-level ModelStack (core/model_stack.hpp) —
// an optional coarse facility model over a subsampled sensor grid whose
// reconstruction is subtracted before the per-group models fit the
// residual (AssessorConfig::hierarchy; flat when coarse_stride == 0). The
// coarse update is replicated per engine replica on the caller thread.
//
// One chunk path: a single process is the one-rank case of the
// distributed engine. Every chunk — process(), both run loops, and the
// delta-checkpoint replay — reaches the same sliced fit as this process's
// owned sensor rows plus the coarse grid rows.
//
// Invariance contract (tests/assessor_test.cpp, tests/hierarchy_test.cpp):
// for a fixed group partition and stride, snapshots are bitwise identical
// across lane counts, rank counts, prefetch depths, ingestion modes, and
// sync vs async ingestion.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/delta_journal.hpp"
#include "core/imrdmd.hpp"
#include "core/model_stack.hpp"
#include "core/stream.hpp"
#include "core/zscore.hpp"
#include "dist/communicator.hpp"
#include "dmd/spectrum.hpp"

namespace imrdmd::core {

struct PipelineOptions {
  ImrdmdOptions imrdmd;
  /// Frequency/power isolation applied before z-scoring (e.g. 0-60 Hz in
  /// case study 1).
  dmd::ModeBand band;
  /// Value-range rule for the baseline population, applied to each chunk's
  /// per-sensor mean (the paper re-selects baselines per window).
  BaselineRange baseline{0.0, 0.0};
  ZscoreOptions zscore;
  /// When true, the baseline population is re-selected on every chunk
  /// (case study 2); when false the initial chunk's population is kept.
  bool reselect_baseline_per_chunk = true;
};

/// Result of the shard-local half of a chunk's processing: fit the chunk
/// into one model and read off the band-filtered magnitudes and per-sensor
/// chunk means. Exposed separately from the global baseline/z-score stage
/// so the engine can run one of these per group model and reconcile
/// globally.
struct MagnitudeUpdate {
  /// Partial-fit diagnostics (default-initialized on the initial fit).
  PartialFitReport report;
  /// Band-filtered per-sensor mode magnitudes (model row order).
  std::vector<double> magnitudes;
  /// Per-sensor chunk means (the values the baseline rule filters).
  std::vector<double> sensor_means;
};

/// Fits `chunk` into `model` (initial fit when unfitted, incremental
/// otherwise) and computes the band-filtered magnitudes and chunk means.
MagnitudeUpdate update_magnitudes(IncrementalMrdmd& model, const Mat& chunk,
                                  const dmd::ModeBand& band);

/// Everything produced by one chunk's worth of engine-wide processing.
struct AssessmentSnapshot {
  std::size_t chunk_index = 0;
  std::size_t chunk_snapshots = 0;
  std::size_t total_snapshots = 0;
  /// Per-group partial-fit diagnostics, in group order.
  std::vector<PartialFitReport> reports;
  /// Merged band-filtered magnitudes, machine sensor order. In hierarchy
  /// mode these are the RESIDUAL-level magnitudes (after the coarse
  /// reconstruction was subtracted).
  std::vector<double> magnitudes;
  /// Merged per-sensor chunk means, machine sensor order — always the raw
  /// chunk's means (the baseline rule reads physical values, so hierarchy
  /// mode recomputes them from the unsubtracted chunk).
  std::vector<double> sensor_means;
  /// Global z-scores (machine sensor order). Flat mode: z-scores of
  /// `magnitudes`. Hierarchy mode: the reconciled per-sensor combination
  /// of the residual- and coarse-level z-scores (larger |z| wins).
  ZscoreAnalysis zscores;
  /// Wall time of the fit + merge (not per group), coarse level included.
  double fit_seconds = 0.0;

  // --- per-level fields, populated only in hierarchy mode ---------------

  /// Coarse-level magnitudes interpolated to full width; empty when flat.
  std::vector<double> coarse_magnitudes;
  /// Each level's own z-scores against the shared baseline population;
  /// empty when flat (zscores.zscores is then the only vector).
  std::vector<double> coarse_zscores;
  std::vector<double> residual_zscores;
  /// Coarse-model partial-fit diagnostics (default on the initial fit and
  /// in flat mode).
  PartialFitReport coarse_report;
  /// Wall time of the coarse fit + residual subtraction; 0 when flat.
  double coarse_fit_seconds = 0.0;
};

/// Periodic durability for long-running streams: when armed (every_n > 0;
/// the path must then be non-empty — an armed policy with no path is
/// rejected at configuration time as a silently-disarmed checkpoint), the
/// run loop writes a checkpoint (core/checkpoint.hpp) to `path` after every
/// `every_n`-th processed chunk, atomically (write-temp-then-rename) so a
/// kill mid-write never leaves a torn file.
struct CheckpointPolicy {
  /// Checkpoint after every N processed chunks; 0 disables the hook.
  std::size_t every_n = 0;
  /// Target file, atomically replaced on each write.
  std::string path;
  /// True selects the rank-local delta save of the checkpoint container
  /// (core/checkpoint.hpp): each process appends the raw rows it ingested
  /// since the last save to its own sidecar part file
  /// (<path>.r<rank>.e<epoch>) instead of gathering every model's bytes to
  /// rank 0, so the save cost is O(rows since last save),
  /// not O(model history). The engine then journals each processed chunk's
  /// owned raw rows in memory between saves — bounded by every_n chunks
  /// when the periodic hook is armed. Off by default (the full save).
  bool delta = false;

  CheckpointPolicy& with_delta(bool enabled) {
    delta = enabled;
    return *this;
  }
};

/// How a distributed run loop moves each chunk from ingestion to the ranks.
/// Single-process topologies ignore the mode (there is nothing to ship).
/// Results are bitwise identical across modes — the choice trades wire
/// bytes only.
enum class IngestMode {
  /// Rank 0 pulls the full chunk and scatters each rank exactly the rows
  /// of the groups it owns: a rank receives O(P*T / R) per chunk. In
  /// hierarchy mode the coarse grid rows ride a small allgathered
  /// side-slice (O(P*T / stride)) so every rank can replicate the coarse
  /// update.
  Scatterv,
  /// Every rank owns a ChunkSource yielding exactly its owned sensor rows
  /// (wrap a full stream in RowSliceSource over owned_sensor_rows(), or
  /// use a natively per-rank source): no chunk payload is shipped at all —
  /// only the per-chunk width/position agreement collective and, in
  /// hierarchy mode, the coarse side-slice.
  PerRank,
  /// Synonym of Scatterv, kept so existing callers still compile.
  Broadcast = Scatterv,
};

/// Ingestion policy of the run loop.
struct IngestOptions {
  /// How many chunks the run loop pulls ahead of processing, on a dedicated
  /// producer thread feeding a bounded queue (backpressure: the producer
  /// blocks while the queue is full, so a bursty source never runs ahead of
  /// compute by more than `prefetch_depth` chunks). 0 = fully synchronous
  /// ingestion; 1 = the classic double buffer. Results are bitwise
  /// invariant across depths — the knob trades memory for burst smoothing
  /// only.
  std::size_t prefetch_depth = 1;
  /// Chunk delivery of the distributed run loop.
  IngestMode mode = IngestMode::Scatterv;

  IngestOptions& with_mode(IngestMode delivery) {
    mode = delivery;
    return *this;
  }
};

/// Why a run returned.
enum class StopReason {
  EndOfStream,   // the source reported end of data
  MaxChunks,     // StopCondition::max_chunks reached
  MaxSnapshots,  // StopCondition::max_snapshots reached
  Deadline,      // StopCondition::max_seconds elapsed
  SinkRequest,   // the sink returned false from on_snapshot
};

/// Composable stop conditions for run_until; every zero field means
/// "unbounded". The legacy max_chunks knob is one condition among several.
struct StopCondition {
  /// Stop after this many snapshots have been delivered this call
  /// (re-deliveries of parked snapshots included, matching the legacy
  /// drivers' max_chunks accounting).
  std::size_t max_chunks = 0;
  /// Stop once this many snapshot columns have been delivered this call.
  std::size_t max_snapshots = 0;
  /// Stop pulling new chunks once this much wall time has elapsed. In the
  /// distributed topology only rank 0 evaluates the clock and announces the
  /// stop through the chunk handshake, so ranks never disagree.
  double max_seconds = 0.0;
};

/// What one run call delivered, handed to SnapshotSink::on_end and
/// returned by run/run_until.
struct RunSummary {
  /// Snapshots delivered to the sink this call.
  std::size_t chunks = 0;
  /// Snapshot columns delivered to the sink this call.
  std::size_t snapshots = 0;
  StopReason reason = StopReason::EndOfStream;
};

/// Push-based observer of a run's snapshot stream — the bounded-memory
/// replacement for the legacy vector-return contract.
///
/// Delivery contract (tests/snapshot_sink_test.cpp conformance harness):
/// snapshots arrive in chunk order, exactly once each across successive
/// run calls (a snapshot whose delivery throws is parked and re-delivered
/// first by the next run), and always BEFORE the periodic checkpoint hook
/// for their chunk — so anything a sink has not seen is also not yet part
/// of any checkpoint's past. In the distributed topology every rank's sink
/// sees the identical stream; sinks there must behave identically across
/// ranks (a rank-divergent stop request or throw desyncs the SPMD
/// collectives).
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;

  /// One processed chunk's results. Return false to request a graceful
  /// stop: the run finishes this chunk's checkpoint hook, parks any
  /// prefetched chunks for the next run, and returns StopReason::
  /// SinkRequest — no data is lost.
  virtual bool on_snapshot(const AssessmentSnapshot& snapshot) = 0;

  /// Rvalue delivery: the engine discards the snapshot after a successful
  /// delivery, so a sink that stores snapshots may override this overload
  /// and take ownership instead of copying (CollectingSink does). The
  /// default observes through the const& overload. Parking note: when
  /// on_snapshot throws, the engine parks whatever the sink left in the
  /// snapshot — the default forwarder leaves it untouched, and
  /// std::vector's strong push_back guarantee makes move-taking sinks
  /// equally safe; an ownership-taking sink must not throw *after*
  /// consuming the snapshot.
  virtual bool on_snapshot(AssessmentSnapshot&& snapshot) {
    return on_snapshot(static_cast<const AssessmentSnapshot&>(snapshot));
  }

  /// The periodic checkpoint hook wrote `path` after the chunk whose
  /// snapshot (already delivered) had `chunk_index`.
  virtual void on_checkpoint_written(const std::string& path,
                                     std::size_t chunk_index) {
    (void)path;
    (void)chunk_index;
  }

  /// The run returned normally (not called when it unwinds on an error).
  virtual void on_end(const RunSummary& summary) { (void)summary; }
};

/// Sink that appends every snapshot to a vector. Binds an external vector
/// when given one, otherwise collects internally.
class CollectingSink final : public SnapshotSink {
 public:
  CollectingSink() : out_(&owned_) {}
  explicit CollectingSink(std::vector<AssessmentSnapshot>* out)
      : out_(out != nullptr ? out : &owned_) {}

  bool on_snapshot(const AssessmentSnapshot& snapshot) override {
    out_->push_back(snapshot);
    return true;
  }
  bool on_snapshot(AssessmentSnapshot&& snapshot) override {
    out_->push_back(std::move(snapshot));
    return true;
  }

  const std::vector<AssessmentSnapshot>& snapshots() const { return *out_; }
  std::vector<AssessmentSnapshot> take() { return std::move(*out_); }

 private:
  std::vector<AssessmentSnapshot> owned_;
  std::vector<AssessmentSnapshot>* out_;
};

/// Builder for the engine: per-model/stage options plus topology,
/// checkpointing, and ingestion. Plain fields with fluent setters — set
/// either way, then hand to Assessor's constructor (which validates).
struct AssessorConfig {
  /// Per-group model options plus the global baseline/z-score stage.
  PipelineOptions pipeline_options;
  /// Fleet-wide sensor count P. 0 means "infer from the first chunk",
  /// which is only legal for the single-process monolithic topology (the
  /// sharded partition and the distributed replica buffers both need P up
  /// front).
  std::size_t sensor_count = 0;
  /// Disjoint sensor groups that together cover [0, P) exactly once.
  /// Empty means one group of all sensors (the monolithic topology).
  std::vector<std::vector<std::size_t>> groups;
  /// Concurrent worker lanes the local group updates are spread across;
  /// lane l processes local groups l, l + lanes, ... in order. 0 = one
  /// lane per local group; clamped to the local group count.
  std::size_t lanes = 0;
  /// Non-null selects the distributed topology: groups are spread across
  /// the communicator's ranks (rank r owns rank_group_range(G, R, r)), and
  /// process/run become collective calls. Must outlive the Assessor.
  dist::Communicator* comm = nullptr;
  /// Periodic checkpointing during run() (disabled by default).
  CheckpointPolicy checkpoint_policy;
  /// Prefetch policy of the run loop.
  IngestOptions ingest_options;
  /// Pool the worker lanes run on; null = global_pool().
  ThreadPool* worker_pool = nullptr;
  /// Multifidelity hierarchy: > 0 enables the coarse facility model over
  /// every coarse_stride-th sensor of each group (core/model_stack.hpp);
  /// 0 (the default) is flat mode.
  std::size_t coarse_stride = 0;
  /// Non-empty selects the process-wide linalg backend at construction via
  /// linalg::set_active_backend ("reference", "avx2", "openblas", or a
  /// register_backend() name). Explicit selection here beats the
  /// IMRDMD_LINALG_BACKEND environment variable; empty leaves whatever is
  /// already active. Unknown names throw InvalidArgument from the
  /// constructor.
  std::string linalg_backend;

  AssessorConfig& pipeline(PipelineOptions options) {
    pipeline_options = std::move(options);
    return *this;
  }
  AssessorConfig& sensors(std::size_t count) {
    sensor_count = count;
    return *this;
  }
  /// One model over every sensor (the paper's monolithic pipeline).
  AssessorConfig& monolithic() {
    groups.clear();
    lanes = 1;
    return *this;
  }
  /// One model per sensor group, spread across `lane_count` worker lanes.
  AssessorConfig& sharded(std::vector<std::vector<std::size_t>> partition,
                          std::size_t lane_count = 0) {
    groups = std::move(partition);
    lanes = lane_count;
    return *this;
  }
  /// Spread the configured groups across the communicator's SPMD ranks.
  AssessorConfig& distributed(dist::Communicator& communicator) {
    comm = &communicator;
    return *this;
  }
  AssessorConfig& checkpoint(CheckpointPolicy policy) {
    checkpoint_policy = std::move(policy);
    return *this;
  }
  AssessorConfig& ingest(IngestOptions options) {
    ingest_options = options;
    return *this;
  }
  AssessorConfig& pool(ThreadPool* p) {
    worker_pool = p;
    return *this;
  }
  /// Two-level multifidelity hierarchy; stride 0 = flat.
  AssessorConfig& hierarchy(std::size_t stride) {
    coarse_stride = stride;
    return *this;
  }
  AssessorConfig& linalg(std::string backend_name) {
    linalg_backend = std::move(backend_name);
    return *this;
  }
};

/// The unified streaming assessment engine. One instance owns the group
/// models, the replicated global z-score stage, and the carry/parking
/// no-data-loss state; process() folds one chunk in, run/run_until drive a
/// ChunkSource through the single run loop shared by every topology.
///
/// SPMD contract (distributed topology): every rank constructs the engine
/// with the same config and calls process()/run_until()/checkpoint entry
/// points collectively, in the same order. A rank that fails
/// mid-collective poisons the world (dist::CollectiveAborted) instead of
/// deadlocking.
class Assessor {
 public:
  /// Validates the configuration: the groups must partition [0, P); an
  /// armed checkpoint policy must carry a path; sensor_count may be 0
  /// (deferred to the first chunk) only for the single-process monolithic
  /// topology. InvalidArgument otherwise.
  explicit Assessor(AssessorConfig config);

  /// Processes one P x T_chunk chunk (the first call performs the initial
  /// fit of every group model). Rejects zero-column chunks and row-count
  /// changes with InvalidArgument. Collective in the distributed topology:
  /// every rank passes the same chunk (rank disagreement on width OR
  /// content — checked through a bitwise digest — fails on every rank
  /// together).
  AssessmentSnapshot process(const Mat& chunk);

  /// Pulls chunks from `source` until exhaustion, pushing each snapshot to
  /// `sink` (see SnapshotSink for the delivery contract). Prefetches up to
  /// IngestOptions::prefetch_depth chunks ahead on a producer thread. A
  /// mid-run failure loses nothing: chunks the prefetch already consumed
  /// are parked and consumed first by the next run, and a snapshot whose
  /// sink delivery threw is parked and delivered first by the next run.
  /// With the checkpoint policy armed, a checkpoint is written atomically
  /// after every N-th processed chunk — and the run fails fast (before
  /// pulling anything) if `source` cannot report a position to record.
  RunSummary run(ChunkSource& source, SnapshotSink& sink);

  /// run() with composable stop conditions; max_chunks is one among
  /// several (snapshot budget, wall-clock deadline, sink-requested stop).
  RunSummary run_until(ChunkSource& source, SnapshotSink& sink,
                       const StopCondition& stop);

  /// Distributed entry point. Under IngestMode::Scatterv rank 0 owns
  /// `source` (non-null there, null elsewhere) and scatters each rank its
  /// owned rows; under IngestMode::PerRank every rank
  /// passes its own source, which must yield exactly this rank's owned
  /// sensor rows (owned_sensor_rows() order — RowSliceSource over a full
  /// replica does). Every rank's sink sees the identical snapshot stream.
  /// Each chunk's agreement collective carries the source's stream
  /// position; a replica whose source has drifted (e.g. a resumed rank
  /// that was never seek'd) raises StreamDesync on every rank together
  /// instead of folding divergent data into replicated state. Also accepts
  /// the single-process topologies (where `source` must be non-null).
  RunSummary run_until(ChunkSource* source, SnapshotSink& sink,
                       const StopCondition& stop);

  /// Elastic growth: appends `new_rows_history.rows()` new sensors to
  /// global group `group`, mid-stream. The new sensors take the next
  /// machine indices [sensors(), sensors() + w); `new_rows_history` is
  /// their raw history, w x snapshots_processed() (the models require
  /// keep_history and at least one processed chunk). In hierarchy mode the
  /// replicated coarse model grows on every rank (the new block's coarse
  /// rows append at the END of the grid; see ModelStack::grow_coarse) and
  /// the owning rank extends its fine model with the residual history.
  /// Collective in the distributed topology: every rank passes the same
  /// arguments (checked through a digest agreement — disagreement fails on
  /// every rank together). Subsequent chunks must carry the grown width.
  void add_sensors(std::size_t group, const Mat& new_rows_history);

  /// The machine sensor indices this process owns, concatenated in global
  /// group order then group-list order — the row layout of the sliced
  /// ingestion modes, and the row list to hand RowSliceSource for
  /// IngestMode::PerRank.
  std::vector<std::size_t> owned_sensor_rows() const;

  // --- introspection ----------------------------------------------------

  const AssessorConfig& config() const { return config_; }
  /// 0 until the first chunk fixes a deferred sensor count.
  std::size_t sensors() const { return sensors_; }
  /// Empty until a deferred sensor count is fixed.
  const std::vector<std::vector<std::size_t>>& groups() const {
    return groups_;
  }
  std::size_t group_count() const { return groups_.size(); }
  /// Worker lanes the local group updates are spread across.
  std::size_t lanes() const { return lanes_; }
  bool distributed_topology() const { return comm_ != nullptr; }
  int rank() const { return comm_ != nullptr ? comm_->rank() : 0; }
  int ranks() const { return comm_ != nullptr ? comm_->size() : 1; }
  /// This process's owned global group range [first, second).
  std::pair<std::size_t, std::size_t> local_groups() const {
    return {local_begin_, local_end_};
  }
  /// Model of owned global group `group` (InvalidArgument when this
  /// process does not own it). In hierarchy mode this is the group's
  /// residual-level model.
  const IncrementalMrdmd& model(std::size_t group) const;
  /// True when the two-level hierarchy is enabled (effective stride > 0).
  bool hierarchical() const { return stack_.hierarchical(); }
  /// Coarse stride; 0 when flat.
  std::size_t coarse_stride() const { return stack_.coarse_stride(); }
  /// The coarse facility model (InvalidArgument in flat mode). Replicated:
  /// identical on every rank of a distributed engine.
  const IncrementalMrdmd& coarse_model() const { return stack_.coarse(); }
  /// Chunks processed so far (the next snapshot's chunk_index).
  std::size_t chunks_processed() const { return chunks_processed_; }
  /// Snapshots folded into the group models so far — the stream position a
  /// checkpoint records (prefetch-safe: counts processed chunks only, not
  /// chunks the prefetch queue has already pulled from the source).
  std::size_t snapshots_processed() const { return snapshots_seen_; }

 private:
  /// Checkpoint/resume (core/checkpoint.hpp) reads the models and stage
  /// state, and installs restored state, through this single access point.
  friend struct CheckpointAccess;

  /// A pulled chunk traveling with the stream position it started at
  /// (kUnknownPosition when the source cannot report one) — what the
  /// distributed per-chunk agreement verifies across replicas.
  struct CarriedChunk {
    std::size_t start_position = ChunkSource::kUnknownPosition;
    Mat chunk;
  };

  /// Fixes the sensor count, builds/validates the partition and ownership
  /// range, and creates the local group models (kept if already created by
  /// the deferred-monolithic constructor path).
  void finalize_topology(std::size_t sensors);
  ThreadPool& pool() const;
  /// The run loop's scatter step: this process's owned rows of the agreed
  /// chunk — the pulled slice itself under PerRank, otherwise the rows
  /// rank 0's chunk holds for this process (one scatterv when
  /// distributed).
  Mat scatter(std::optional<CarriedChunk>& current, std::size_t cols);
  /// Assembles the coarse grid rows (grid order) from every process's
  /// owned raw rows — one allgatherv in the distributed topology.
  Mat assemble_coarse(const Mat& local_rows);
  /// The one sliced fit: the coarse level (hierarchy mode) fits
  /// `coarse_chunk` and hands back the residual of `local_rows` (this
  /// process's owned raw rows, owned_sensor_rows() order); then each owned
  /// group's model fits its contiguous block across the local lanes. With
  /// `updates` non-null each group's band magnitudes and raw chunk means
  /// land in (*updates)[l]; the delta-checkpoint replay passes null and
  /// only refits.
  CoarseUpdate fit_owned(const Mat& local_rows, const Mat& coarse_chunk,
                         std::vector<MagnitudeUpdate>* updates);
  /// fit_owned, then the merge of the per-group updates in deterministic
  /// group order (allgatherv in the distributed topology), the replicated
  /// z-score stage, the delta journal record, and the counters.
  AssessmentSnapshot process_owned(const Mat& local_rows,
                                   const Mat& coarse_chunk);
  /// Rebuilds owned_rows_ / group_of_sensor_ / local_row_of_sensor_ from
  /// the current partition and ownership range.
  void rebuild_owned_maps();
  /// Verifies a chunk's agreed start position against the replicated
  /// expected stream position (StreamDesync on mismatch — deterministic,
  /// so every rank throws together) and advances the expectation.
  void check_stream_position(std::size_t start, std::size_t cols);
  /// Delivers one snapshot to the sink, parking it at the front of the
  /// redelivery queue if the sink throws. Returns the sink's keep-going
  /// verdict.
  bool deliver(SnapshotSink& sink, AssessmentSnapshot&& snapshot,
               RunSummary& summary);
  /// The periodic checkpoint hook (dispatches on topology).
  void maybe_checkpoint(SnapshotSink& sink, std::size_t chunk_index);

  AssessorConfig config_;
  dist::Communicator* comm_ = nullptr;
  std::size_t sensors_ = 0;
  /// The FULL global partition (every process knows every group's sensor
  /// list; only the owned range has models). Empty while a deferred sensor
  /// count is pending.
  std::vector<std::vector<std::size_t>> groups_;
  std::size_t local_begin_ = 0;
  std::size_t local_end_ = 0;
  std::size_t lanes_ = 1;
  /// True when this process owns every sensor in machine order
  /// (owned_rows_ == 0..P-1): chunks then need no row gather.
  bool identity_rows_ = false;
  /// Owned machine sensor indices, group order then group-list order — the
  /// row layout of the sliced ingestion modes and the delta journal.
  std::vector<std::size_t> owned_rows_;
  /// Machine sensor index -> owning global group (replicated).
  std::vector<std::size_t> group_of_sensor_;
  /// Machine sensor index -> row offset inside this rank's owned slice
  /// (npos when not owned).
  std::vector<std::size_t> local_row_of_sensor_;
  /// The replicated expected stream position of the next chunk
  /// (kUnknownPosition until a position is first observed or a resume sets
  /// it); the distributed per-chunk agreement raises StreamDesync when a
  /// chunk's agreed start disagrees.
  std::size_t stream_expect_ = ChunkSource::kUnknownPosition;
  /// Chunks the prefetch queue consumed before a failure or early stop;
  /// the next run consumes them, in order, before advancing the source.
  std::deque<CarriedChunk> carry_chunks_;
  /// The delta-checkpoint journal (CheckpointPolicy::delta): fed each
  /// processed chunk's owned raw rows; the checkpoint module does the rest.
  DeltaJournal journal_;
  /// Snapshots whose sink delivery threw; delivered first (front to back)
  /// by the next run — the models have already folded those chunks in, so
  /// the results cannot be regenerated.
  std::deque<AssessmentSnapshot> parked_snapshots_;
  /// The two-level model stack: fine models of the owned groups only
  /// (local index l = global group local_begin_ + l; stable addresses, so
  /// pool tasks may hold raw pointers across an engine move) plus the
  /// optional coarse facility model, replicated per engine replica.
  ModelStack stack_;
  /// Replicated in the distributed topology: every rank feeds it the same
  /// merged bytes, so the state stays identical across ranks.
  BaselineZscoreStage zscore_stage_;
  std::size_t chunks_processed_ = 0;
  std::size_t snapshots_seen_ = 0;
};

/// Partitions [0, sensors) into `count` contiguous, near-equal groups (the
/// first `sensors % count` groups get one extra sensor).
std::vector<std::vector<std::size_t>> contiguous_groups(std::size_t sensors,
                                                        std::size_t count);

/// Deterministic contiguous assignment of `groups` global group indices to
/// `ranks` SPMD ranks: rank r owns the half-open range [first, second) of
/// group indices, near-equal (the first `groups % ranks` ranks get one
/// extra). Ranks beyond the group count own the empty range. A pure
/// function of (groups, ranks, rank) — every rank computes the same map
/// with no communication, and checkpoint resume at a different rank count
/// re-derives ownership from the same rule.
std::pair<std::size_t, std::size_t> rank_group_range(std::size_t groups,
                                                     std::size_t ranks,
                                                     std::size_t rank);

}  // namespace imrdmd::core
