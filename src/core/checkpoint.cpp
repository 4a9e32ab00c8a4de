#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/thread_pool.hpp"

namespace imrdmd::core {

namespace {

constexpr char kMagic[8] = {'I', 'M', 'R', 'D', 'M', 'D', '1', '\n'};
constexpr char kPipelineMagic[8] = {'I', 'M', 'R', 'D', 'P', 'L', '1', '\n'};
constexpr char kFleetMagic[8] = {'I', 'M', 'R', 'D', 'F', 'L', '1', '\n'};
// V2 = V1 plus a hierarchy section (coarse stride + one coarse-model
// section) between the group partition and the per-group model sections.
// Written only by hierarchical engines, so every flat save stays
// byte-identical to the V1 generation.
constexpr char kFleetMagic2[8] = {'I', 'M', 'R', 'D', 'F', 'L', '2', '\n'};
// V3 = the rank-local delta container (CheckpointPolicy::delta): the main
// file holds only the header, partition, hierarchy map, and a manifest of
// per-writer part files (<path>.r<writer>.e<epoch>) that each hold one
// process's model sections (the base) plus the raw rows of every chunk
// processed since (the deltas). Saving appends O(chunk) bytes per rank
// instead of gathering O(model history) to rank 0; loading replays the
// deltas through the restored base. The main file is atomically rewritten
// on every save and references its parts by exact byte count and digest,
// so a torn append is truncated away and a crash between a base rewrite
// and the main rewrite leaves the previous epoch's files authoritative.
constexpr char kFleetMagic3[8] = {'I', 'M', 'R', 'D', 'F', 'L', '3', '\n'};
constexpr char kPartMagic[8] = {'I', 'M', 'R', 'D', 'P', 'T', '3', '\n'};

// --- primitive writers/readers (little-endian native; the format is not
// exchanged across architectures) -------------------------------------

void put_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

void put_f64(std::ostream& out, double value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

// Reader that tracks how many bytes remain in the stream so every
// length-prefixed section can be bounded *before* it drives an allocation or
// a read past EOF: a truncated or corrupted header then yields the
// documented ParseError instead of a huge allocation / bad_alloc.
class BoundedReader {
 public:
  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};

  explicit BoundedReader(std::istream& in) : in_(in) {
    const std::istream::pos_type pos = in_.tellg();
    if (pos == std::istream::pos_type(-1)) return;  // non-seekable
    in_.seekg(0, std::ios::end);
    const std::istream::pos_type end = in_.tellg();
    in_.seekg(pos);
    if (end != std::istream::pos_type(-1) && end >= pos) {
      remaining_ = static_cast<std::uint64_t>(end - pos);
    }
  }

  /// Bytes left in the stream (kUnknown when the stream is not seekable).
  std::uint64_t remaining() const { return remaining_; }

  /// Throws ParseError unless `bytes` more bytes are known to be available.
  /// A non-seekable stream has no exact size, so sections there are held to
  /// a hard ceiling instead — a corrupted header may still waste up to the
  /// ceiling, but never a fantasy-sized allocation.
  void require(std::uint64_t bytes, const char* what) const {
    constexpr std::uint64_t kMaxUnknownSection = std::uint64_t{1} << 30;
    const std::uint64_t limit =
        remaining_ == kUnknown ? kMaxUnknownSection : remaining_;
    if (bytes > limit) {
      throw ParseError(std::string("checkpoint truncated (") + what + ")");
    }
  }

  void read(char* dst, std::uint64_t bytes, const char* what) {
    require(bytes, what);
    in_.read(dst, static_cast<std::streamsize>(bytes));
    if (!in_) {
      throw ParseError(std::string("checkpoint truncated (") + what + ")");
    }
    if (remaining_ != kUnknown) remaining_ -= bytes;
  }

 private:
  std::istream& in_;
  std::uint64_t remaining_ = kUnknown;
};

std::uint64_t get_u64(BoundedReader& in) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value, "u64");
  return value;
}

double get_f64(BoundedReader& in) {
  double value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value, "f64");
  return value;
}

void put_mat(std::ostream& out, const linalg::Mat& m) {
  put_u64(out, m.rows());
  put_u64(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(double)));
}

linalg::Mat get_mat(BoundedReader& in) {
  const std::uint64_t rows = get_u64(in);
  const std::uint64_t cols = get_u64(in);
  if (rows > (1u << 26) || cols > (1u << 26)) {
    throw ParseError("checkpoint matrix shape implausible");
  }
  in.require(rows * cols * sizeof(double), "matrix");
  linalg::Mat m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()), m.size() * sizeof(double),
          "matrix");
  return m;
}

void put_cmat(std::ostream& out, const linalg::CMat& m) {
  put_u64(out, m.rows());
  put_u64(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(linalg::Complex)));
}

linalg::CMat get_cmat(BoundedReader& in) {
  const std::uint64_t rows = get_u64(in);
  const std::uint64_t cols = get_u64(in);
  if (rows > (1u << 26) || cols > (1u << 26)) {
    throw ParseError("checkpoint matrix shape implausible");
  }
  in.require(rows * cols * sizeof(linalg::Complex), "complex matrix");
  linalg::CMat m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          m.size() * sizeof(linalg::Complex), "complex matrix");
  return m;
}

void put_node(std::ostream& out, const MrdmdNode& node) {
  put_u64(out, node.level);
  put_u64(out, node.bin_index);
  put_u64(out, node.t_begin);
  put_u64(out, node.t_end);
  put_u64(out, node.stride);
  put_f64(out, node.rho);
  put_u64(out, node.svd_rank);
  put_cmat(out, node.modes);
  put_u64(out, node.eigenvalues.size());
  for (const auto& value : node.eigenvalues) {
    put_f64(out, value.real());
    put_f64(out, value.imag());
  }
  for (const auto& value : node.amplitudes) {
    put_f64(out, value.real());
    put_f64(out, value.imag());
  }
}

MrdmdNode get_node(BoundedReader& in) {
  MrdmdNode node;
  node.level = get_u64(in);
  node.bin_index = get_u64(in);
  node.t_begin = get_u64(in);
  node.t_end = get_u64(in);
  node.stride = get_u64(in);
  node.rho = get_f64(in);
  node.svd_rank = get_u64(in);
  node.modes = get_cmat(in);
  const std::uint64_t modes = get_u64(in);
  // Each mode carries 4 doubles (eigenvalue + amplitude, re/im); bound the
  // count before resize so a garbage prefix cannot drive the allocation.
  if (modes > (1u << 26)) throw ParseError("checkpoint mode count implausible");
  in.require(modes * 4 * sizeof(double), "node modes");
  node.eigenvalues.resize(modes);
  node.amplitudes.resize(modes);
  for (auto& value : node.eigenvalues) {
    const double re = get_f64(in);
    const double im = get_f64(in);
    value = {re, im};
  }
  for (auto& value : node.amplitudes) {
    const double re = get_f64(in);
    const double im = get_f64(in);
    value = {re, im};
  }
  return node;
}

// --- stage options / stage state (shared by pipeline + fleet headers) ---

void put_stage_options(std::ostream& out, const PipelineOptions& options) {
  put_f64(out, options.band.min_frequency_hz);
  put_f64(out, options.band.max_frequency_hz);
  put_f64(out, options.band.min_power);
  put_f64(out, options.baseline.value_min);
  put_f64(out, options.baseline.value_max);
  put_f64(out, options.zscore.near_band);
  put_f64(out, options.zscore.hot_threshold);
  put_u64(out, options.reselect_baseline_per_chunk ? 1 : 0);
}

void get_stage_options(BoundedReader& in, PipelineOptions& options) {
  options.band.min_frequency_hz = get_f64(in);
  options.band.max_frequency_hz = get_f64(in);
  options.band.min_power = get_f64(in);
  options.baseline.value_min = get_f64(in);
  options.baseline.value_max = get_f64(in);
  options.zscore.near_band = get_f64(in);
  options.zscore.hot_threshold = get_f64(in);
  options.reselect_baseline_per_chunk = get_u64(in) != 0;
}

void put_stage_state(std::ostream& out,
                     const BaselineZscoreStage::State& state) {
  put_u64(out, state.selected_once ? 1 : 0);
  put_u64(out, state.baseline_sensors.size());
  for (std::size_t sensor : state.baseline_sensors) put_u64(out, sensor);
}

BaselineZscoreStage::State get_stage_state(BoundedReader& in) {
  BaselineZscoreStage::State state;
  state.selected_once = get_u64(in) != 0;
  const std::uint64_t count = get_u64(in);
  if (count > (1u << 26)) {
    throw ParseError("checkpoint baseline population implausible");
  }
  in.require(count * sizeof(std::uint64_t), "baseline population");
  state.baseline_sensors.resize(count);
  for (auto& sensor : state.baseline_sensors) {
    sensor = static_cast<std::size_t>(get_u64(in));
  }
  return state;
}

/// Everything a pipeline or fleet container parses before assembly. A
/// pipeline-kind parse holds one model and the trivial identity partition,
/// so either kind can assemble into any topology.
struct ParsedCheckpoint {
  PipelineOptions stage_options;  // band/baseline/zscore/reselect only
  std::uint64_t chunks_processed = 0;
  std::uint64_t stream_position = 0;
  BaselineZscoreStage::State stage_state;
  std::uint64_t sensors = 0;
  std::vector<std::vector<std::size_t>> groups;
  std::vector<IncrementalMrdmd> models;
  /// Hierarchy section (V2/V3 containers): 0 = flat stack.
  std::uint64_t coarse_stride = 0;
  std::optional<IncrementalMrdmd> coarse_model;
  /// Explicit coarse grid + interpolation map (V3 only; empty grid =
  /// canonical, i.e. re-derivable as ModelStack::coarse_grid(groups,
  /// stride)). Carried because elastic growth appends grid rows the pure
  /// function cannot reproduce.
  std::vector<std::size_t> coarse_grid_rows;
  std::vector<std::uint64_t> interp_lo;
  std::vector<std::uint64_t> interp_hi;
  std::vector<double> interp_w;
};

// --- delta-container primitives ----------------------------------------

/// The sidecar part file of writer `writer` in epoch `epoch`:
/// <path>.r<writer>.e<epoch>. A base rewrite bumps the epoch, so the files
/// the previous main references are never overwritten in place.
std::string part_path(const std::string& path, std::size_t writer,
                      std::size_t epoch) {
  return path + ".r" + std::to_string(writer) + ".e" + std::to_string(epoch);
}

void put_header(std::ostream& out, const PipelineOptions& options,
                std::uint64_t chunks_processed, std::uint64_t stream_position,
                const BaselineZscoreStage::State& state) {
  put_stage_options(out, options);
  put_u64(out, chunks_processed);
  put_u64(out, stream_position);
  put_stage_state(out, state);
}

void get_header(BoundedReader& in, ParsedCheckpoint& parsed) {
  get_stage_options(in, parsed.stage_options);
  parsed.chunks_processed = get_u64(in);
  parsed.stream_position = get_u64(in);
  parsed.stage_state = get_stage_state(in);
  if (parsed.chunks_processed == 0) {
    throw ParseError("checkpoint has no processed chunks");
  }
}

}  // namespace

/// Single access point for every private member the checkpoint module
/// serializes: the model internals (IncrementalMrdmd) and the unified
/// engine's model stack, stage, counters, and lane structure (Assessor /
/// ModelStack). Defined only in this translation unit.
struct CheckpointAccess {
  /// `parallel_bins_override`, when non-null, is written in place of the
  /// model's own mrdmd.parallel_bins. The engine forces that knob off on
  /// its models as a nested-pool guard — a function of the LOCAL lane
  /// count, which differs across lane/rank configurations — so model
  /// sections canonicalize it to the configured pipeline value: checkpoint
  /// bytes stay a pure function of stream + partition + options, invariant
  /// across lane and rank counts.
  static void put_model(std::ostream& out, const IncrementalMrdmd& model,
                        const bool* parallel_bins_override = nullptr);
  static IncrementalMrdmd get_model(BoundedReader& in);
  /// The legacy "IMRDPL1" container over a flat monolithic engine.
  static void save_pipeline_container(std::ostream& out,
                                      const Assessor& assessor);
  /// The "IMRDFL1"/"IMRDFL2" container over any single-process engine.
  static void save_single(std::ostream& out, const Assessor& assessor);
  /// Collective save of a distributed-topology engine (same bytes).
  static void save_distributed(std::ostream* out, const Assessor& assessor);
  /// The "IMRDFL3" rank-local delta container: every process writes (or
  /// appends to) its own part file; rank 0 atomically rewrites the main
  /// manifest. Collective in the distributed topology.
  static void save_fleet3(const std::string& path, Assessor& assessor);
  /// Loads an "IMRDFL3" container (`in` is the main file, magic already
  /// consumed): restores the base models from the part files, replays the
  /// journaled delta chunks through them, and validates the result against
  /// the manifest's final counters.
  static RestoredAssessor load_fleet3(const std::string& path,
                                      BoundedReader& in,
                                      dist::Communicator* comm,
                                      const AssessorResumeOptions& resume);
  /// Builds an engine of any topology from a parsed container.
  static RestoredAssessor assemble(ParsedCheckpoint parsed,
                                   dist::Communicator* comm,
                                   const AssessorResumeOptions& resume);
  static BaselineZscoreStage::State stage_state(const Assessor& assessor) {
    return assessor.zscore_stage_.state();
  }
};

namespace {

/// Load-time validation of the restored baseline selection: the fail-fast
/// contract is ParseError *at load*, not a DimensionError chunks later
/// inside the resumed stream's first z-scoring. The saved population is
/// strictly ascending (select_baseline_sensors walks sensors in order), so
/// anything else is corruption.
void check_stage_state(const ParsedCheckpoint& parsed) {
  const auto& sensors = parsed.stage_state.baseline_sensors;
  for (std::size_t i = 0; i < sensors.size(); ++i) {
    if (sensors[i] >= parsed.sensors ||
        (i > 0 && sensors[i] <= sensors[i - 1])) {
      throw ParseError("checkpoint baseline population corrupt");
    }
  }
}

/// Reads one length-prefixed model image, bounding the declared length
/// against the remaining stream before parsing and verifying afterwards
/// that the parse consumed exactly the declared bytes.
IncrementalMrdmd get_model_section(BoundedReader& in, const char* what) {
  const std::uint64_t length = get_u64(in);
  in.require(length, what);
  const std::uint64_t before = in.remaining();
  IncrementalMrdmd model = CheckpointAccess::get_model(in);
  if (before != BoundedReader::kUnknown && before - in.remaining() != length) {
    throw ParseError(std::string("checkpoint section length mismatch (") +
                     what + ")");
  }
  return model;
}

ParsedCheckpoint parse_pipeline_body(BoundedReader& in) {
  ParsedCheckpoint parsed;
  get_header(in, parsed);
  parsed.models.push_back(get_model_section(in, "pipeline model section"));
  if (parsed.models[0].time_steps() != parsed.stream_position) {
    throw ParseError("checkpoint stream position disagrees with the model");
  }
  parsed.sensors = parsed.models[0].sensors();
  parsed.groups.emplace_back();
  parsed.groups[0].reserve(parsed.sensors);
  for (std::size_t p = 0; p < parsed.sensors; ++p) {
    parsed.groups[0].push_back(p);
  }
  check_stage_state(parsed);
  return parsed;
}

/// Reads the sensor count + group partition shared by every fleet
/// container generation (V1/V2/V3), with the same bounded validation.
void parse_fleet_partition(BoundedReader& in, ParsedCheckpoint& parsed) {
  parsed.sensors = get_u64(in);
  if (parsed.sensors == 0 || parsed.sensors > (std::uint64_t{1} << 32)) {
    throw ParseError("fleet checkpoint sensor count implausible");
  }
  const std::uint64_t group_count = get_u64(in);
  if (group_count == 0 || group_count > parsed.sensors) {
    throw ParseError("fleet checkpoint group count implausible");
  }
  // Every group carries at least its size word; a partition of `sensors`
  // carries exactly `sensors` index words in total. Bound both before any
  // group drives an allocation.
  in.require((group_count + parsed.sensors) * sizeof(std::uint64_t),
             "fleet groups");
  parsed.groups.resize(group_count);
  for (auto& group : parsed.groups) {
    const std::uint64_t size = get_u64(in);
    if (size > parsed.sensors) {
      throw ParseError("fleet checkpoint group size implausible");
    }
    in.require(size * sizeof(std::uint64_t), "fleet group");
    group.resize(size);
    for (auto& sensor : group) {
      sensor = static_cast<std::size_t>(get_u64(in));
      if (sensor >= parsed.sensors) {
        throw ParseError("fleet checkpoint group sensor index out of range");
      }
    }
  }
}

ParsedCheckpoint parse_fleet_body(BoundedReader& in, bool v2) {
  ParsedCheckpoint parsed;
  get_header(in, parsed);
  parse_fleet_partition(in, parsed);
  if (v2) {
    // Hierarchy section: the stride and the replicated coarse model. A V2
    // container with a disabled stride would be a V1 spelled wrong (and
    // would break resave byte-identity), so it is rejected as corrupt.
    parsed.coarse_stride = get_u64(in);
    if (parsed.coarse_stride == 0 ||
        parsed.coarse_stride > (std::uint64_t{1} << 32)) {
      throw ParseError("fleet checkpoint coarse stride implausible");
    }
    parsed.coarse_model =
        get_model_section(in, "fleet coarse model section");
    const std::size_t coarse_rows =
        ModelStack::coarse_grid(parsed.groups,
                                static_cast<std::size_t>(
                                    parsed.coarse_stride))
            .size();
    if (parsed.coarse_model->sensors() != coarse_rows) {
      throw ParseError(
          "fleet coarse section row count disagrees with the partition");
    }
    if (parsed.coarse_model->time_steps() != parsed.stream_position) {
      throw ParseError(
          "fleet checkpoint stream position disagrees with the coarse "
          "model");
    }
  }
  const std::size_t group_count = parsed.groups.size();
  parsed.models.reserve(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    parsed.models.push_back(get_model_section(in, "fleet model section"));
    if (parsed.models.back().sensors() != parsed.groups[g].size()) {
      throw ParseError("fleet section row count disagrees with its group");
    }
    if (parsed.models.back().time_steps() != parsed.stream_position) {
      throw ParseError("fleet checkpoint stream position disagrees with a "
                       "group model");
    }
  }
  check_stage_state(parsed);
  return parsed;
}

ParsedCheckpoint parse_any(BoundedReader& in) {
  char magic[sizeof kMagic];
  in.read(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kPipelineMagic, sizeof magic) == 0) {
    return parse_pipeline_body(in);
  }
  if (std::memcmp(magic, kFleetMagic, sizeof magic) == 0) {
    return parse_fleet_body(in, /*v2=*/false);
  }
  if (std::memcmp(magic, kFleetMagic2, sizeof magic) == 0) {
    return parse_fleet_body(in, /*v2=*/true);
  }
  if (std::memcmp(magic, kFleetMagic3, sizeof magic) == 0) {
    throw ParseError(
        "the IMRDFL3 delta container references sidecar part files; load "
        "it through the file-path API");
  }
  throw ParseError("not an imrdmd pipeline/fleet checkpoint (bad magic)");
}

}  // namespace

void CheckpointAccess::put_model(std::ostream& out,
                                 const IncrementalMrdmd& model,
                                 const bool* parallel_bins_override) {
  IMRDMD_REQUIRE_ARG(model.fitted(), "cannot checkpoint an unfitted model");
  out.write(kMagic, sizeof kMagic);

  // Options.
  const ImrdmdOptions& options = model.options_;
  const bool parallel_bins = parallel_bins_override != nullptr
                                 ? *parallel_bins_override
                                 : options.mrdmd.parallel_bins;
  put_u64(out, options.mrdmd.max_levels);
  put_u64(out, options.mrdmd.max_cycles);
  put_u64(out, options.mrdmd.use_svht ? 1 : 0);
  put_u64(out, options.mrdmd.max_rank);
  put_f64(out, options.mrdmd.dt);
  put_u64(out, static_cast<std::uint64_t>(options.mrdmd.criterion));
  put_u64(out, parallel_bins ? 1 : 0);
  put_u64(out, static_cast<std::uint64_t>(options.mrdmd.amplitude_fit));
  put_u64(out, options.isvd.max_rank);
  put_f64(out, options.isvd.truncation_tol);
  put_f64(out, options.drift_threshold);
  put_u64(out, options.recompute_on_drift ? 1 : 0);
  put_u64(out, options.keep_history ? 1 : 0);

  // Scalars.
  put_u64(out, model.sensors_);
  put_u64(out, model.time_steps_);
  put_u64(out, model.stride1_);

  // Level-1 state.
  put_mat(out, model.grid_);
  put_mat(out, model.isvd_.u());
  put_u64(out, model.isvd_.s().size());
  for (double s : model.isvd_.s()) put_f64(out, s);
  put_mat(out, model.isvd_.v());
  put_u64(out, model.isvd_.cols_seen());

  // Tree + caches.
  put_u64(out, model.nodes_.size());
  for (const MrdmdNode& node : model.nodes_) put_node(out, node);
  put_mat(out, model.cached_grid_recon_);
  put_mat(out, model.history_);
}

IncrementalMrdmd CheckpointAccess::get_model(BoundedReader& in) {
  char magic[sizeof kMagic];
  in.read(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw ParseError("not an imrdmd checkpoint (bad magic)");
  }

  ImrdmdOptions options;
  options.mrdmd.max_levels = get_u64(in);
  options.mrdmd.max_cycles = get_u64(in);
  options.mrdmd.use_svht = get_u64(in) != 0;
  options.mrdmd.max_rank = get_u64(in);
  options.mrdmd.dt = get_f64(in);
  options.mrdmd.criterion = static_cast<SlowModeCriterion>(get_u64(in));
  options.mrdmd.parallel_bins = get_u64(in) != 0;
  options.mrdmd.amplitude_fit = static_cast<dmd::AmplitudeFit>(get_u64(in));
  options.isvd.max_rank = get_u64(in);
  options.isvd.truncation_tol = get_f64(in);
  options.drift_threshold = get_f64(in);
  options.recompute_on_drift = get_u64(in) != 0;
  options.keep_history = get_u64(in) != 0;

  IncrementalMrdmd model(options);
  model.sensors_ = get_u64(in);
  model.time_steps_ = get_u64(in);
  model.stride1_ = get_u64(in);

  model.grid_ = get_mat(in);
  linalg::Mat u = get_mat(in);
  const std::uint64_t rank = get_u64(in);
  if (rank > (1u << 26)) throw ParseError("checkpoint rank implausible");
  in.require(rank * sizeof(double), "singular values");
  std::vector<double> s(rank);
  for (auto& value : s) value = get_f64(in);
  linalg::Mat v = get_mat(in);
  const std::uint64_t cols_seen = get_u64(in);
  model.isvd_ = isvd::Isvd::from_state(options.isvd, std::move(u),
                                       std::move(s), std::move(v), cols_seen);

  const std::uint64_t node_count = get_u64(in);
  if (node_count == 0) throw ParseError("checkpoint has no tree nodes");
  // A node serializes to at least its 7 fixed words; bound the count before
  // reserving so a corrupted header cannot drive a huge allocation.
  if (node_count > (1u << 26)) {
    throw ParseError("checkpoint node count implausible");
  }
  in.require(node_count * 7 * sizeof(std::uint64_t), "tree nodes");
  // Cap the up-front reservation: the stream-byte bound above says nothing
  // about in-memory node size, so a garbage count within it could still
  // reserve GiBs. Growth past the cap amortizes normally.
  model.nodes_.reserve(std::min<std::uint64_t>(node_count, 1u << 16));
  for (std::uint64_t i = 0; i < node_count; ++i) {
    model.nodes_.push_back(get_node(in));
  }
  model.cached_grid_recon_ = get_mat(in);
  model.history_ = get_mat(in);
  model.fitted_ = true;

  // Consistency checks: the restored state must be internally coherent.
  if (model.nodes_[0].t_end != model.time_steps_ ||
      model.nodes_[0].level != 1) {
    throw ParseError("checkpoint root node inconsistent");
  }
  if (model.isvd_.v().rows() + 1 != model.grid_.cols()) {
    throw ParseError("checkpoint iSVD out of sync with the level-1 grid");
  }
  return model;
}

void CheckpointAccess::save_pipeline_container(std::ostream& out,
                                               const Assessor& assessor) {
  IMRDMD_REQUIRE_ARG(assessor.stack_.fine_count() == 1 &&
                         assessor.stack_.fine(0).fitted(),
                     "cannot checkpoint a pipeline before its first chunk");
  IMRDMD_REQUIRE_ARG(
      !assessor.stack_.hierarchical(),
      "the legacy pipeline container cannot hold a hierarchy");
  out.write(kPipelineMagic, sizeof kPipelineMagic);
  put_header(out, assessor.config_.pipeline_options,
             assessor.chunks_processed_, assessor.snapshots_seen_,
             assessor.zscore_stage_.state());
  // The monolithic engine always runs its single group on the caller
  // thread, so the model's own parallel_bins is the configured value —
  // byte-identical to the pre-unification pipeline writer.
  std::ostringstream buffer;
  put_model(buffer, assessor.stack_.fine(0));
  const std::string bytes = std::move(buffer).str();
  put_u64(out, bytes.size());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error("pipeline checkpoint write failed");
}

namespace {

/// The container preamble shared by the single-process and distributed
/// writers: version magic (V2 exactly when hierarchical), stage header,
/// partition, and — V2 only — the hierarchy section with the replicated
/// coarse model (canonicalized like every model section).
void put_fleet_preamble(std::ostream& out, const Assessor& assessor,
                        bool canonical_bins) {
  const bool hierarchical = assessor.hierarchical();
  out.write(hierarchical ? kFleetMagic2 : kFleetMagic, sizeof kFleetMagic);
  put_header(out, assessor.config().pipeline_options,
             assessor.chunks_processed(), assessor.snapshots_processed(),
             CheckpointAccess::stage_state(assessor));
  put_u64(out, assessor.sensors());
  put_u64(out, assessor.groups().size());
  for (const auto& group : assessor.groups()) {
    put_u64(out, group.size());
    for (std::size_t sensor : group) put_u64(out, sensor);
  }
  if (hierarchical) {
    put_u64(out, assessor.coarse_stride());
    std::ostringstream buffer;
    CheckpointAccess::put_model(buffer, assessor.coarse_model(),
                                &canonical_bins);
    const std::string bytes = std::move(buffer).str();
    put_u64(out, bytes.size());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

}  // namespace

void CheckpointAccess::save_single(std::ostream& out,
                                   const Assessor& assessor) {
  IMRDMD_REQUIRE_ARG(assessor.comm_ == nullptr,
                     "use the collective save for a distributed engine");
  IMRDMD_REQUIRE_ARG(assessor.chunks_processed_ >= 1,
                     "cannot checkpoint a fleet before its first chunk");
  IMRDMD_REQUIRE_ARG(
      !assessor.stack_.hierarchical() ||
          assessor.stack_.coarse_grid_canonical(),
      "an elastically grown hierarchical stack cannot be saved into the "
      "IMRDFL1/IMRDFL2 containers (they re-derive the coarse grid on "
      "load); enable the delta (IMRDFL3) checkpoint policy");
  const bool canonical_bins =
      assessor.config_.pipeline_options.imrdmd.mrdmd.parallel_bins;
  put_fleet_preamble(out, assessor, canonical_bins);

  // Serialize the per-group model images concurrently across the engine's
  // worker lanes (the same lane structure process() uses); the images are
  // then concatenated in deterministic group order, so the bytes are
  // identical for any lane count.
  const std::size_t group_count = assessor.groups_.size();
  std::vector<std::string> sections(group_count);
  run_lanes(
      assessor.lanes_,
      [&assessor, &sections, &canonical_bins, group_count](std::size_t lane) {
        for (std::size_t g = lane; g < group_count; g += assessor.lanes_) {
          std::ostringstream buffer;
          put_model(buffer, assessor.stack_.fine(g), &canonical_bins);
          sections[g] = std::move(buffer).str();
        }
      },
      &assessor.pool());
  for (const std::string& section : sections) {
    put_u64(out, section.size());
    out.write(section.data(), static_cast<std::streamsize>(section.size()));
  }
  if (!out) throw Error("fleet checkpoint write failed");
}

namespace {

/// Packs one rank's model sections into the doubles the communicator
/// speaks: [section_count, then per section: byte_length,
/// ceil(byte_length/8) words of raw bytes (zero-padded)]. Counts and
/// lengths ride as exact integers — sections are far below 2^53 bytes.
std::vector<double> pack_sections(const std::vector<std::string>& sections) {
  std::size_t words = 1;
  for (const std::string& s : sections) words += 1 + (s.size() + 7) / 8;
  std::vector<double> blob;
  blob.reserve(words);
  blob.push_back(static_cast<double>(sections.size()));
  for (const std::string& s : sections) {
    blob.push_back(static_cast<double>(s.size()));
    const std::size_t padded = (s.size() + 7) / 8;
    const std::size_t start = blob.size();
    blob.resize(start + padded, 0.0);
    std::memcpy(blob.data() + start, s.data(), s.size());
  }
  return blob;
}

/// Inverse of pack_sections; `expected` is the section count this rank was
/// supposed to contribute (its owned group count).
std::vector<std::string> unpack_sections(const std::vector<double>& blob,
                                         std::size_t expected) {
  IMRDMD_REQUIRE_DIMS(!blob.empty() &&
                          blob[0] == static_cast<double>(expected),
                      "distributed checkpoint rank section count mismatch");
  std::vector<std::string> sections;
  sections.reserve(expected);
  std::size_t cursor = 1;
  for (std::size_t s = 0; s < expected; ++s) {
    IMRDMD_REQUIRE_DIMS(cursor < blob.size(),
                        "distributed checkpoint rank blob truncated");
    const std::size_t bytes = static_cast<std::size_t>(blob[cursor++]);
    const std::size_t padded = (bytes + 7) / 8;
    IMRDMD_REQUIRE_DIMS(cursor + padded <= blob.size(),
                        "distributed checkpoint rank blob truncated");
    std::string section(bytes, '\0');
    std::memcpy(section.data(), blob.data() + cursor, bytes);
    sections.push_back(std::move(section));
    cursor += padded;
  }
  IMRDMD_REQUIRE_DIMS(cursor == blob.size(),
                      "distributed checkpoint rank blob has trailing bytes");
  return sections;
}

}  // namespace

void CheckpointAccess::save_distributed(std::ostream* out,
                                        const Assessor& assessor) {
  IMRDMD_REQUIRE_ARG(assessor.comm_ != nullptr,
                     "this engine is not distributed");
  dist::Communicator& comm = *assessor.comm_;
  const bool root = comm.rank() == 0;
  IMRDMD_REQUIRE_ARG(root == (out != nullptr),
                     "the checkpoint stream lives on rank 0 only (pass "
                     "nullptr on the other ranks)");
  // chunks_processed_ is replicated, so on an unstarted engine every rank
  // throws here together — before any collective.
  IMRDMD_REQUIRE_ARG(assessor.chunks_processed_ >= 1,
                     "cannot checkpoint a fleet before its first chunk");
  IMRDMD_REQUIRE_ARG(
      !assessor.stack_.hierarchical() ||
          assessor.stack_.coarse_grid_canonical(),
      "an elastically grown hierarchical stack cannot be saved into the "
      "IMRDFL1/IMRDFL2 containers (they re-derive the coarse grid on "
      "load); enable the delta (IMRDFL3) checkpoint policy");

  // Serialize the owned groups' model images concurrently across this
  // rank's local lanes (the same lane structure process() uses), in local
  // group order.
  const std::size_t local_count = assessor.local_end_ - assessor.local_begin_;
  const bool canonical_bins =
      assessor.config_.pipeline_options.imrdmd.mrdmd.parallel_bins;
  std::vector<std::string> sections(local_count);
  run_lanes(
      assessor.lanes_,
      [&assessor, &sections, &canonical_bins, local_count](std::size_t lane) {
        for (std::size_t l = lane; l < local_count; l += assessor.lanes_) {
          std::ostringstream buffer;
          put_model(buffer, assessor.stack_.fine(l), &canonical_bins);
          sections[l] = std::move(buffer).str();
        }
      },
      &assessor.pool());

  // One ragged gather moves every rank's sections to the writer. Rank
  // blocks arrive in rank order and ownership ranges are contiguous, so
  // concatenation IS global group order — the same order (and bytes) the
  // single-process save_single writes.
  const std::vector<double> blob = pack_sections(sections);
  const std::vector<std::vector<double>> blobs =
      comm.gatherv(std::span<const double>(blob.data(), blob.size()), 0);
  if (!root) return;

  // Rank 0's coarse replica is every rank's coarse replica (the coarse
  // update is deterministic over the agreed coarse grid rows), so the
  // hierarchy section needs no gather and the bytes stay rank-count
  // invariant.
  put_fleet_preamble(*out, assessor, canonical_bins);
  const std::size_t ranks = static_cast<std::size_t>(comm.size());
  for (std::size_t r = 0; r < ranks; ++r) {
    const auto range = rank_group_range(assessor.groups_.size(), ranks, r);
    const std::vector<std::string> rank_sections =
        unpack_sections(blobs[r], range.second - range.first);
    for (const std::string& section : rank_sections) {
      put_u64(*out, section.size());
      out->write(section.data(),
                 static_cast<std::streamsize>(section.size()));
    }
  }
  if (!*out) throw Error("fleet checkpoint write failed");
}

void CheckpointAccess::save_fleet3(const std::string& path,
                                   Assessor& assessor) {
  IMRDMD_REQUIRE_ARG(assessor.chunks_processed_ >= 1,
                     "cannot checkpoint a fleet before its first chunk");
  DeltaJournal& journal = assessor.journal_;
  dist::Communicator* comm = assessor.comm_;
  const std::size_t writers =
      comm != nullptr ? static_cast<std::size_t>(comm->size()) : 1;
  const std::size_t writer =
      comm != nullptr ? static_cast<std::size_t>(comm->rank()) : 0;
  const bool root = writer == 0;
  const bool hierarchical = assessor.stack_.hierarchical();
  const bool canonical_bins =
      assessor.config_.pipeline_options.imrdmd.mrdmd.parallel_bins;

  // Base rewrite on the first save of this engine's life, after a resume or
  // an elastic growth, and when the target path changes; otherwise append
  // only the rows processed since the last save. Every input to this
  // decision is replicated, so all ranks agree.
  const bool need_base = !journal.appendable_ || journal.path_ != path;
  // The epoch a base rewrite supersedes at this path, retired below.
  const std::size_t old_epoch = journal.epoch_;
  const std::size_t old_writers = journal.path_ == path ? journal.writers_ : 0;

  if (need_base) {
    // A monotonic epoch names the part files, so a base rewrite never
    // touches the files the still-current main references — a crash
    // before the main rewrite leaves the previous checkpoint whole.
    const std::size_t epoch = journal.epoch_ + 1;
    std::ostringstream part;
    part.write(kPartMagic, sizeof kPartMagic);
    const std::size_t local_count =
        assessor.local_end_ - assessor.local_begin_;
    put_u64(part,
            local_count + ((root && hierarchical) ? std::size_t{1} : 0));
    const auto put_section = [&part, &canonical_bins](
                                 const IncrementalMrdmd& model) {
      std::ostringstream buffer;
      put_model(buffer, model, &canonical_bins);
      const std::string bytes = std::move(buffer).str();
      put_u64(part, bytes.size());
      part.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };
    if (root && hierarchical) put_section(assessor.stack_.coarse());
    for (std::size_t l = 0; l < local_count; ++l) {
      put_section(assessor.stack_.fine(l));
    }
    const std::string bytes = std::move(part).str();
    std::ofstream out(part_path(path, writer, epoch),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) throw Error("delta checkpoint part write failed");
    journal.part_bytes_ = bytes.size();
    journal.part_digest_ = fnv1a64(bytes.data(), bytes.size());
    journal.path_ = path;
    journal.epoch_ = epoch;
    journal.writers_ = writers;
    journal.base_chunks_ = assessor.chunks_processed_;
    journal.base_position_ = assessor.snapshots_seen_;
    // The base is the full current model state, so it subsumes whatever
    // rows were pending.
    journal.pending_.clear();
    journal.appendable_ = true;
  } else {
    std::ostringstream append;
    for (const linalg::Mat& record : journal.pending_) {
      put_mat(append, record);
    }
    const std::string bytes = std::move(append).str();
    if (!bytes.empty()) {
      std::ofstream out(part_path(path, writer, journal.epoch_),
                        std::ios::binary | std::ios::app);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      out.flush();
      if (!out) throw Error("delta checkpoint part append failed");
    }
    // The digest covers the bytes the main file will reference — a torn
    // tail past them is truncated away on load.
    journal.part_bytes_ += bytes.size();
    journal.part_digest_ =
        fnv1a64(bytes.data(), bytes.size(), journal.part_digest_);
    journal.pending_.clear();
  }

  // The manifest needs every writer's (byte count, digest). The digest
  // travels as two exact 32-bit halves — doubles carry 32-bit integers
  // exactly, a raw 64-bit reinterpretation could be NaN.
  std::vector<std::uint64_t> all_bytes{journal.part_bytes_};
  std::vector<std::uint64_t> all_digest{journal.part_digest_};
  if (comm != nullptr) {
    const double mine[3] = {
        static_cast<double>(journal.part_bytes_),
        static_cast<double>(journal.part_digest_ >> 32),
        static_cast<double>(journal.part_digest_ & 0xffffffffull)};
    const std::vector<std::vector<double>> gathered =
        comm->gatherv(std::span<const double>(mine, 3), 0);
    if (root) {
      all_bytes.assign(writers, 0);
      all_digest.assign(writers, 0);
      for (std::size_t w = 0; w < writers; ++w) {
        IMRDMD_REQUIRE_DIMS(gathered[w].size() == 3,
                            "delta checkpoint manifest slot has the wrong "
                            "length");
        all_bytes[w] = static_cast<std::uint64_t>(gathered[w][0]);
        all_digest[w] =
            (static_cast<std::uint64_t>(gathered[w][1]) << 32) |
            static_cast<std::uint64_t>(gathered[w][2]);
      }
    }
  }

  if (root) {
    write_file_atomic(path, [&](std::ostream& out) {
      out.write(kFleetMagic3, sizeof kFleetMagic3);
      put_header(out, assessor.config_.pipeline_options,
                 assessor.chunks_processed_, assessor.snapshots_seen_,
                 assessor.zscore_stage_.state());
      put_u64(out, assessor.sensors_);
      put_u64(out, assessor.groups_.size());
      for (const auto& group : assessor.groups_) {
        put_u64(out, group.size());
        for (std::size_t sensor : group) put_u64(out, sensor);
      }
      put_u64(out, assessor.stack_.coarse_stride());
      if (hierarchical) {
        // The explicit grid + interpolation map: after elastic growth the
        // grid is no longer the pure function of (groups, stride), so the
        // container must carry it.
        const ModelStack& stack = assessor.stack_;
        put_u64(out, stack.rows_.size());
        for (std::size_t row : stack.rows_) put_u64(out, row);
        put_u64(out, stack.interp_.size());
        for (const auto& ip : stack.interp_) {
          put_u64(out, ip.lo);
          put_u64(out, ip.hi);
          put_f64(out, ip.w);
        }
      }
      put_u64(out, journal.epoch_);
      put_u64(out, writers);
      for (std::size_t w = 0; w < writers; ++w) {
        put_u64(out, all_bytes[w]);
        put_u64(out, all_digest[w]);
      }
      put_u64(out, journal.base_chunks_);
      put_u64(out, journal.base_position_);
      if (!out) throw Error("delta checkpoint manifest write failed");
    });
  }
  if (need_base && old_writers > 0) {
    // Retire every part of the superseded epoch at this path — including
    // those of writers a resume at fewer ranks no longer has — only after
    // the new main is durable (the barrier orders every rank's removal
    // after rank 0's rewrite). A crash before this point merely orphans
    // files; the main always names its exact parts.
    if (comm != nullptr) comm->barrier();
    for (std::size_t w = writer; w < old_writers; w += writers) {
      std::remove(part_path(path, w, old_epoch).c_str());
    }
  }
}

RestoredAssessor CheckpointAccess::load_fleet3(
    const std::string& path, BoundedReader& in, dist::Communicator* comm,
    const AssessorResumeOptions& resume) {
  ParsedCheckpoint parsed;
  get_header(in, parsed);
  parse_fleet_partition(in, parsed);

  parsed.coarse_stride = get_u64(in);
  if (parsed.coarse_stride > (std::uint64_t{1} << 32)) {
    throw ParseError("fleet checkpoint coarse stride implausible");
  }
  const bool hierarchical = parsed.coarse_stride > 0;
  if (hierarchical) {
    const std::uint64_t grid_count = get_u64(in);
    if (grid_count == 0 || grid_count > parsed.sensors) {
      throw ParseError("fleet delta coarse grid implausible");
    }
    in.require(grid_count * sizeof(std::uint64_t), "fleet delta grid");
    parsed.coarse_grid_rows.resize(grid_count);
    for (auto& row : parsed.coarse_grid_rows) {
      row = static_cast<std::size_t>(get_u64(in));
      if (row >= parsed.sensors) {
        throw ParseError("fleet delta coarse grid row out of range");
      }
    }
    const std::uint64_t interp_count = get_u64(in);
    if (interp_count != parsed.sensors) {
      throw ParseError("fleet delta interpolation map count mismatch");
    }
    in.require(interp_count * (2 * sizeof(std::uint64_t) + sizeof(double)),
               "fleet delta interpolation map");
    parsed.interp_lo.resize(interp_count);
    parsed.interp_hi.resize(interp_count);
    parsed.interp_w.resize(interp_count);
    for (std::uint64_t p = 0; p < interp_count; ++p) {
      parsed.interp_lo[p] = get_u64(in);
      parsed.interp_hi[p] = get_u64(in);
      parsed.interp_w[p] = get_f64(in);
      if (parsed.interp_lo[p] >= grid_count ||
          parsed.interp_hi[p] >= grid_count) {
        throw ParseError("fleet delta interpolation row out of range");
      }
    }
  }

  const std::uint64_t epoch = get_u64(in);
  const std::uint64_t writers = get_u64(in);
  if (writers == 0 || writers > (std::uint64_t{1} << 20)) {
    throw ParseError("fleet delta writer count implausible");
  }
  in.require(writers * 2 * sizeof(std::uint64_t) + 2 * sizeof(std::uint64_t),
             "fleet delta manifest");
  std::vector<std::uint64_t> part_bytes(writers);
  std::vector<std::uint64_t> part_digest(writers);
  for (std::uint64_t w = 0; w < writers; ++w) {
    part_bytes[w] = get_u64(in);
    part_digest[w] = get_u64(in);
  }
  const std::uint64_t base_chunks = get_u64(in);
  const std::uint64_t base_position = get_u64(in);
  if (base_chunks == 0 || base_chunks > parsed.chunks_processed ||
      base_position > parsed.stream_position) {
    throw ParseError("fleet delta base counters implausible");
  }
  const std::size_t record_count =
      static_cast<std::size_t>(parsed.chunks_processed - base_chunks);

  // Every process reads every part file independently: the base sections
  // restore in global group order (contiguous old-topology ownership), and
  // the journaled records replay below at ANY new rank count.
  std::vector<std::vector<linalg::Mat>> writer_records(writers);
  std::vector<std::size_t> writer_rows(writers, 0);
  for (std::size_t w = 0; w < writers; ++w) {
    const auto range = rank_group_range(parsed.groups.size(), writers, w);
    for (std::size_t g = range.first; g < range.second; ++g) {
      writer_rows[w] += parsed.groups[g].size();
    }
    std::ifstream file(part_path(path, w, epoch),
                       std::ios::binary | std::ios::ate);
    if (!file) {
      throw ParseError("delta checkpoint part missing: " +
                       part_path(path, w, epoch));
    }
    // Size check BEFORE the allocation: a corrupted manifest length must
    // fail as a truncated part, not as a giant buffer.
    const auto actual = file.tellg();
    if (actual < 0 ||
        static_cast<std::uint64_t>(actual) < part_bytes[w]) {
      throw ParseError("delta checkpoint part truncated: " +
                       part_path(path, w, epoch));
    }
    file.seekg(0);
    std::string data(static_cast<std::size_t>(part_bytes[w]), '\0');
    file.read(data.data(), static_cast<std::streamsize>(data.size()));
    if (static_cast<std::uint64_t>(file.gcount()) != part_bytes[w]) {
      throw ParseError("delta checkpoint part truncated: " +
                       part_path(path, w, epoch));
    }
    // A longer file is fine (a torn append past the manifest's bytes); a
    // digest mismatch inside them is not.
    if (fnv1a64(data.data(), data.size()) != part_digest[w]) {
      throw ParseError("delta checkpoint part digest mismatch: " +
                       part_path(path, w, epoch));
    }
    std::istringstream stream(std::move(data));
    BoundedReader part(stream);
    char magic[sizeof kPartMagic];
    part.read(magic, sizeof magic, "part magic");
    if (std::memcmp(magic, kPartMagic, sizeof magic) != 0) {
      throw ParseError("not an imrdmd delta part (bad magic)");
    }
    const std::uint64_t sections = get_u64(part);
    const std::uint64_t expected_sections =
        (range.second - range.first) +
        ((w == 0 && hierarchical) ? std::uint64_t{1} : 0);
    if (sections != expected_sections) {
      throw ParseError("delta checkpoint part section count mismatch");
    }
    if (w == 0 && hierarchical) {
      parsed.coarse_model =
          get_model_section(part, "fleet delta coarse section");
      if (parsed.coarse_model->sensors() != parsed.coarse_grid_rows.size()) {
        throw ParseError(
            "fleet delta coarse section row count disagrees with the grid");
      }
      if (parsed.coarse_model->time_steps() != base_position) {
        throw ParseError(
            "fleet delta base position disagrees with the coarse model");
      }
    }
    for (std::size_t g = range.first; g < range.second; ++g) {
      parsed.models.push_back(
          get_model_section(part, "fleet delta model section"));
      if (parsed.models.back().sensors() != parsed.groups[g].size()) {
        throw ParseError(
            "fleet delta section row count disagrees with its group");
      }
      if (parsed.models.back().time_steps() != base_position) {
        throw ParseError(
            "fleet delta base position disagrees with a group model");
      }
    }
    // Reserve against the bytes actually present, not the (corruptible)
    // manifest counter — the loop below still parses exactly record_count
    // records or fails on the bounded reader.
    writer_records[w].reserve(std::min<std::size_t>(
        record_count, part.remaining() / (2 * sizeof(std::uint64_t)) + 1));
    for (std::size_t i = 0; i < record_count; ++i) {
      linalg::Mat record = get_mat(part);
      if (record.rows() != writer_rows[w] || record.cols() == 0) {
        throw ParseError("delta checkpoint record shape mismatch");
      }
      writer_records[w].push_back(std::move(record));
    }
    if (part.remaining() != 0) {
      throw ParseError("delta checkpoint part has trailing bytes");
    }
  }
  check_stage_state(parsed);

  // Cross-part consistency: every writer journaled the same chunk
  // sequence, and together the records span base -> final position.
  std::vector<std::size_t> record_cols(record_count);
  std::uint64_t replayed = 0;
  for (std::size_t i = 0; i < record_count; ++i) {
    record_cols[i] = writer_records[0][i].cols();
    for (std::size_t w = 1; w < writers; ++w) {
      if (writer_records[w][i].cols() != record_cols[i]) {
        throw ParseError(
            "delta checkpoint parts disagree on a record's width");
      }
    }
    replayed += record_cols[i];
  }
  if (base_position + replayed != parsed.stream_position) {
    throw ParseError(
        "delta checkpoint records do not span the recorded stream "
        "position");
  }

  RestoredAssessor restored = assemble(std::move(parsed), comm, resume);
  Assessor& assessor = restored.assessor;

  // Replay: each journaled chunk reaches the engine's one sliced fit as this
  // process's owned rows plus the coarse grid rows, gathered from the
  // writers' slices — the identical deterministic operations the live
  // engine ran, so the resumed models are bitwise the live ones. A sensor's
  // row sits in the slice of the writer that owned its group.
  std::vector<std::pair<std::size_t, std::size_t>> slice_row(
      assessor.sensors_);
  for (std::size_t w = 0; w < writers; ++w) {
    const auto range = rank_group_range(assessor.groups_.size(), writers, w);
    std::size_t row = 0;
    for (std::size_t g = range.first; g < range.second; ++g) {
      for (std::size_t sensor : assessor.groups_[g]) {
        slice_row[sensor] = {w, row++};
      }
    }
  }
  const auto gather = [&](const std::vector<std::size_t>& sensors,
                          std::size_t record) {
    const std::size_t cols = record_cols[record];
    linalg::Mat rows(sensors.size(), cols);
    for (std::size_t k = 0; k < sensors.size(); ++k) {
      const auto [w, row] = slice_row[sensors[k]];
      const double* src = writer_records[w][record].data() + row * cols;
      std::copy(src, src + cols, rows.data() + k * cols);
    }
    return rows;
  };
  // (A flat stack's coarse grid is empty, so its coarse rows are too.)
  const std::vector<std::size_t>& owned = assessor.owned_rows_;
  const std::vector<std::size_t>& grid = assessor.stack_.coarse_rows();
  for (std::size_t i = 0; i < record_count; ++i) {
    assessor.fit_owned(gather(owned, i), gather(grid, i), nullptr);
  }

  // Post-replay coherence: every restored model must have arrived exactly
  // at the manifest's final position.
  const std::size_t local_count =
      assessor.local_end_ - assessor.local_begin_;
  for (std::size_t l = 0; l < local_count; ++l) {
    if (assessor.stack_.fine(l).time_steps() != restored.stream_position) {
      throw ParseError("delta checkpoint replay out of sync with a model");
    }
  }
  if (hierarchical && assessor.stack_.coarse().time_steps() !=
                          restored.stream_position) {
    throw ParseError(
        "delta checkpoint replay out of sync with the coarse model");
  }
  // Hand the loaded epoch to the resumed journal: its first save rewrites
  // the base under a FRESH epoch (the main file read here still references
  // this one, and a crash mid-rewrite must leave that reference loadable),
  // then retires every part of this one.
  assessor.journal_.path_ = path;
  assessor.journal_.epoch_ = static_cast<std::size_t>(epoch);
  assessor.journal_.writers_ = static_cast<std::size_t>(writers);
  return restored;
}

RestoredAssessor CheckpointAccess::assemble(
    ParsedCheckpoint parsed, dist::Communicator* comm,
    const AssessorResumeOptions& resume) {
  AssessorConfig config;
  config.pipeline_options = parsed.stage_options;
  config.pipeline_options.imrdmd = parsed.models[0].options();
  config.sensor_count = static_cast<std::size_t>(parsed.sensors);
  config.groups = parsed.groups;
  config.lanes = resume.lanes;
  config.comm = comm;
  config.ingest_options = resume.ingest;
  config.worker_pool = resume.pool;
  config.checkpoint_policy = resume.checkpoint;
  // The stride always comes from the container ("IMRDFL1"/"IMRDPL1" files
  // load as stride-disabled flat stacks).
  config.hierarchy(static_cast<std::size_t>(parsed.coarse_stride));
  // The constructor re-validates the partition (disjoint, total cover) and
  // re-derives this process's ownership range — the checkpoint itself
  // carries nothing about the lane or rank count that wrote it.
  Assessor assessor(std::move(config));
  const std::size_t local_count = assessor.local_end_ - assessor.local_begin_;
  for (std::size_t l = 0; l < local_count; ++l) {
    *assessor.stack_.fine_[l] =
        std::move(parsed.models[assessor.local_begin_ + l]);
    // Re-apply the constructor's nested-pool guard to the *restored*
    // models: a checkpoint saved from a single-lane engine carries
    // parallel_bins = true, and resuming it with real lanes would fan each
    // lane task back out onto (and block on) its own pool.
    if (assessor.lanes_ > 1) {
      assessor.stack_.fine_[l]->options_.mrdmd.parallel_bins = false;
    }
  }
  if (parsed.coarse_model.has_value()) {
    // Every rank restores the full coarse replica (it is replicated at
    // runtime, so every rank needs it regardless of group ownership); the
    // coarse model runs on the caller thread and keeps its own options.
    *assessor.stack_.coarse_ = std::move(*parsed.coarse_model);
  }
  if (!parsed.coarse_grid_rows.empty()) {
    // V3 explicit hierarchy map: override the canonical grid the
    // constructor derived — elastic growth appended rows the pure
    // coarse_grid function cannot reproduce. Canonicality is re-derived,
    // so an ungrown V3 resave may return to the compact containers.
    ModelStack& stack = assessor.stack_;
    stack.canonical_grid_ =
        parsed.coarse_grid_rows ==
        ModelStack::coarse_grid(assessor.groups_,
                                static_cast<std::size_t>(
                                    parsed.coarse_stride));
    stack.rows_ = std::move(parsed.coarse_grid_rows);
    stack.interp_.assign(parsed.interp_lo.size(), {});
    for (std::size_t p = 0; p < stack.interp_.size(); ++p) {
      stack.interp_[p].lo = static_cast<std::size_t>(parsed.interp_lo[p]);
      stack.interp_[p].hi = static_cast<std::size_t>(parsed.interp_hi[p]);
      stack.interp_[p].w = parsed.interp_w[p];
    }
  }
  assessor.zscore_stage_.restore(std::move(parsed.stage_state));
  assessor.chunks_processed_ =
      static_cast<std::size_t>(parsed.chunks_processed);
  assessor.snapshots_seen_ =
      static_cast<std::size_t>(parsed.stream_position);
  // The resumed engine expects the source to continue exactly at the
  // recorded position: the run loop's per-chunk position agreement raises
  // StreamDesync if the first pulled chunk starts anywhere else.
  assessor.stream_expect_ =
      static_cast<std::size_t>(parsed.stream_position);
  return {std::move(assessor), parsed.stream_position};
}

void save_checkpoint(std::ostream& out, const IncrementalMrdmd& model) {
  CheckpointAccess::put_model(out, model);
  if (!out) throw Error("checkpoint write failed");
}

IncrementalMrdmd load_checkpoint(std::istream& raw) {
  BoundedReader in(raw);
  return CheckpointAccess::get_model(in);
}

void save_checkpoint_file(const std::string& path,
                          const IncrementalMrdmd& model) {
  write_file_atomic(
      path, [&model](std::ostream& out) { save_checkpoint(out, model); });
}

IncrementalMrdmd load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint for reading: " + path);
  return load_checkpoint(in);
}

// --- Assessor ------------------------------------------------------------

void save_assessor_checkpoint(std::ostream& out, const Assessor& assessor) {
  CheckpointAccess::save_single(out, assessor);
}

void save_assessor_checkpoint(std::ostream* out, const Assessor& assessor) {
  if (assessor.distributed_topology()) {
    CheckpointAccess::save_distributed(out, assessor);
  } else {
    IMRDMD_REQUIRE_ARG(out != nullptr,
                       "a single-process save needs an output stream");
    CheckpointAccess::save_single(*out, assessor);
  }
}

void save_assessor_checkpoint_file(const std::string& path,
                                   Assessor& assessor) {
  if (assessor.config().checkpoint_policy.delta) {
    // The delta policy selects the rank-local IMRDFL3 container: every
    // process writes its own part file (no model-byte gather), rank 0
    // atomically rewrites the manifest.
    CheckpointAccess::save_fleet3(path, assessor);
    return;
  }
  if (assessor.distributed_topology() && assessor.rank() != 0) {
    // Peers only feed the gather; the file belongs to rank 0.
    CheckpointAccess::save_distributed(nullptr, assessor);
    return;
  }
  write_file_atomic(path, [&assessor](std::ostream& out) {
    save_assessor_checkpoint(&out, assessor);
  });
}

RestoredAssessor load_assessor_checkpoint(std::istream& raw,
                                          const AssessorResumeOptions& resume) {
  BoundedReader in(raw);
  return CheckpointAccess::assemble(parse_any(in), nullptr, resume);
}

namespace {

/// Peeks the container magic of an opened checkpoint file: true when it is
/// the IMRDFL3 delta container (the stream is then positioned after the
/// magic), false otherwise (the stream is rewound to the start).
bool peek_fleet3(std::ifstream& in) {
  char magic[sizeof kFleetMagic3];
  in.read(magic, sizeof magic);
  if (in.gcount() == sizeof magic &&
      std::memcmp(magic, kFleetMagic3, sizeof magic) == 0) {
    return true;
  }
  in.clear();
  in.seekg(0);
  return false;
}

}  // namespace

RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, const AssessorResumeOptions& resume) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint for reading: " + path);
  if (peek_fleet3(in)) {
    BoundedReader reader(in);
    return CheckpointAccess::load_fleet3(path, reader, nullptr, resume);
  }
  return load_assessor_checkpoint(in, resume);
}

RestoredAssessor load_assessor_checkpoint(std::istream& raw,
                                          dist::Communicator& comm,
                                          const AssessorResumeOptions& resume) {
  BoundedReader in(raw);
  return CheckpointAccess::assemble(parse_any(in), &comm, resume);
}

RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, dist::Communicator& comm,
    const AssessorResumeOptions& resume) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint for reading: " + path);
  if (peek_fleet3(in)) {
    BoundedReader reader(in);
    return CheckpointAccess::load_fleet3(path, reader, &comm, resume);
  }
  return load_assessor_checkpoint(in, comm, resume);
}

// --- Legacy container coverage -------------------------------------------

void save_legacy_pipeline_checkpoint(std::ostream& out,
                                     const Assessor& assessor) {
  CheckpointAccess::save_pipeline_container(out, assessor);
}

}  // namespace imrdmd::core
