#include "core/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/byte_codec.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/thread_pool.hpp"

namespace imrdmd::core {

namespace {

constexpr char kMagic[8] = {'I', 'M', 'R', 'D', 'M', 'D', '1', '\n'};
// The engine container, one for every topology and both storages: the
// preamble (stage header, partition, coarse stride and, when hierarchical,
// the explicit coarse grid and interpolation map), then a writer count W.
// W = 0 is the full save: the section list follows inline. W >= 1 is the
// delta save: a manifest of W per-writer part files
// (<path>.r<writer>.e<epoch>), each holding one process's section list (the
// base) plus the raw rows of every chunk processed since (the deltas).
// Saving appends O(chunk) bytes per rank instead of gathering O(model
// history) to rank 0; loading replays the deltas through the restored base.
// The main file is atomically rewritten on every save and references its
// parts by exact byte count and digest, so a torn append is truncated away
// and a crash between a base rewrite and the main rewrite leaves the
// previous epoch's files authoritative.
constexpr char kEngineMagic[8] = {'I', 'M', 'R', 'D', 'F', 'L', '4', '\n'};
constexpr char kPartMagic[8] = {'I', 'M', 'R', 'D', 'P', 'T', '3', '\n'};

/// A bool or two-valued enum option word: 0 or 1, anything else is corrupt.
std::uint64_t get_bit(ByteReader& in, const char* what) {
  const std::uint64_t value = in.u64();
  if (value > 1) {
    throw ParseError(std::string("checkpoint option out of range (") + what +
                     ")");
  }
  return value;
}

void expect_magic(ByteReader& in, const char (&magic)[8], const char* error) {
  char seen[sizeof magic];
  in.raw(seen, sizeof seen, "magic");
  if (std::memcmp(seen, magic, sizeof seen) != 0) throw ParseError(error);
}

void write_bytes(std::ostream& out, const std::vector<std::uint8_t>& bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Every value word of a model section must be finite: a NaN or infinity
// would load and only surface in the next fit's SVD or eigensolver. Each
// block is checked right after it is read, while it is still in cache.
void require_finite(const double* values, std::size_t count,
                    const char* what) {
  if (!std::all_of(values, values + count,
                   [](double v) { return std::isfinite(v); })) {
    throw ParseError(std::string("checkpoint ") + what + " not finite");
  }
}

void require_finite(const linalg::Mat& m, const char* what) {
  require_finite(m.data(), m.size(), what);
}

void require_finite(const linalg::Complex* values, std::size_t count,
                    const char* what) {
  require_finite(reinterpret_cast<const double*>(values), 2 * count, what);
}

void put_node(ByteWriter& out, const MrdmdNode& node) {
  out.u64(node.level);
  out.u64(node.bin_index);
  out.u64(node.t_begin);
  out.u64(node.t_end);
  out.u64(node.stride);
  out.f64(node.rho);
  out.u64(node.svd_rank);
  out.matrix(node.modes);
  out.u64(node.eigenvalues.size());
  // std::complex<double> is laid out as its (re, im) pair.
  out.raw(node.eigenvalues.data(),
          node.eigenvalues.size() * sizeof(linalg::Complex));
  out.raw(node.amplitudes.data(),
          node.amplitudes.size() * sizeof(linalg::Complex));
}

MrdmdNode get_node(ByteReader& in) {
  MrdmdNode node;
  node.level = in.u64();
  node.bin_index = in.u64();
  node.t_begin = in.u64();
  node.t_end = in.u64();
  node.stride = in.u64();
  node.rho = in.f64();
  require_finite(&node.rho, 1, "node rho");
  node.svd_rank = in.u64();
  node.modes = in.matrix<linalg::CMat>();
  require_finite(node.modes.data(), node.modes.size(), "node modes");
  const std::uint64_t modes = in.u64();
  node.eigenvalues = in.array<linalg::Complex>(modes, "node eigenvalues");
  node.amplitudes = in.array<linalg::Complex>(modes, "node amplitudes");
  require_finite(node.eigenvalues.data(), modes, "node eigenvalues");
  require_finite(node.amplitudes.data(), modes, "node amplitudes");
  return node;
}

/// `count` index words, each below `bound`.
std::vector<std::size_t> get_indices(ByteReader& in, std::uint64_t count,
                                     std::uint64_t bound, const char* what) {
  const std::vector<std::uint64_t> words = in.array<std::uint64_t>(count, what);
  if (std::any_of(words.begin(), words.end(),
                  [bound](std::uint64_t index) { return index >= bound; })) {
    throw ParseError(std::string("checkpoint ") + what + " out of range");
  }
  return {words.begin(), words.end()};
}

// --- stage options / stage state (shared by pipeline + fleet headers) ---

/// The stage's double-valued options, in container order.
template <class Options>
auto stage_doubles(Options& o) {
  return std::array{&o.band.min_frequency_hz, &o.band.max_frequency_hz,
                    &o.band.min_power,        &o.baseline.value_min,
                    &o.baseline.value_max,    &o.zscore.near_band,
                    &o.zscore.hot_threshold};
}

void put_stage_options(ByteWriter& out, const PipelineOptions& options) {
  for (const double* value : stage_doubles(options)) out.f64(*value);
  out.u64(options.reselect_baseline_per_chunk ? 1 : 0);
}

void get_stage_options(ByteReader& in, PipelineOptions& options) {
  // +inf is a meaningful bound (the band's default upper edge), NaN is
  // not: a NaN hot_threshold would score every Elevated sensor Hot. An
  // unordered baseline range would fail the first resumed chunk instead.
  for (double* value : stage_doubles(options)) {
    *value = in.f64();
    if (std::isnan(*value)) throw ParseError("checkpoint stage option NaN");
  }
  if (!(options.baseline.value_min <= options.baseline.value_max)) {
    throw ParseError("checkpoint baseline range out of order");
  }
  options.reselect_baseline_per_chunk =
      get_bit(in, "reselect_baseline_per_chunk") != 0;
}

void put_stage_state(ByteWriter& out,
                     const BaselineZscoreStage::State& state) {
  out.u64(state.selected_once ? 1 : 0);
  out.u64(state.baseline_sensors.size());
  for (std::size_t sensor : state.baseline_sensors) out.u64(sensor);
}

BaselineZscoreStage::State get_stage_state(ByteReader& in) {
  BaselineZscoreStage::State state;
  state.selected_once = get_bit(in, "selected_once") != 0;
  const std::vector<std::uint64_t> sensors =
      in.array<std::uint64_t>(in.u64(), "baseline population");
  state.baseline_sensors.assign(sensors.begin(), sensors.end());
  return state;
}

/// Everything an engine container parses before assembly.
struct ParsedCheckpoint {
  PipelineOptions stage_options;  // band/baseline/zscore/reselect only
  std::uint64_t chunks_processed = 0;
  std::uint64_t stream_position = 0;
  BaselineZscoreStage::State stage_state;
  std::uint64_t sensors = 0;
  std::vector<std::vector<std::size_t>> groups;
  /// 0 = flat stack. Otherwise the explicit coarse grid and each sensor's
  /// interpolation entry, carried because elastic growth appends grid rows
  /// that ModelStack::coarse_grid(groups, stride) cannot reproduce.
  std::uint64_t coarse_stride = 0;
  std::vector<std::size_t> coarse_grid_rows;
  std::vector<ModelStack::Interp> interp;
  /// 0 = the section list follows inline; else the manifest's part count.
  std::uint64_t writers = 0;
  std::optional<IncrementalMrdmd> coarse_model;
  std::vector<IncrementalMrdmd> models;
};

/// The delta save's manifest, which follows a nonzero writer count.
struct Manifest {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> part_bytes;
  std::vector<std::uint64_t> part_digest;
  /// Chunk count and stream position at the base write.
  std::uint64_t base_chunks = 0;
  std::uint64_t base_position = 0;
};

/// The sidecar part file of writer `writer` in epoch `epoch`:
/// <path>.r<writer>.e<epoch>. A base rewrite bumps the epoch, so the files
/// the previous main references are never overwritten in place.
std::string part_path(const std::string& path, std::size_t writer,
                      std::size_t epoch) {
  return path + ".r" + std::to_string(writer) + ".e" + std::to_string(epoch);
}

}  // namespace

/// Single access point for every private member the checkpoint module
/// serializes: the model internals (IncrementalMrdmd) and the unified
/// engine's model stack, stage, counters, lane structure and journal
/// (Assessor / ModelStack / DeltaJournal). Defined only in this translation
/// unit.
struct CheckpointAccess {
  static void put_model(ByteWriter& out, const IncrementalMrdmd& model);
  static IncrementalMrdmd get_model(ByteReader& in);
  /// Magic, stage header, partition and hierarchy map, then `writers`.
  static void put_preamble(ByteWriter& out, const Assessor& assessor,
                           std::uint64_t writers);
  /// The full save. Collective in the distributed topology, where `out` is
  /// non-null on rank 0 only.
  static void save_full(std::ostream* out, const Assessor& assessor);
  /// The delta save: every process writes (or appends to) its own part
  /// file; rank 0 atomically rewrites the main manifest.
  static void save_delta(const std::string& path, Assessor& assessor);
  /// Saves `path` in the engine's storage and retires the parts of the
  /// epoch it supersedes. Collective in the distributed topology.
  static void save_file(const std::string& path, Assessor& assessor);
  /// Loads either storage. `path` names the main file whose parts a delta
  /// save references (nullptr for a stream, which cannot reach them).
  static RestoredAssessor load(ByteReader& in, const std::string* path,
                               dist::Communicator* comm,
                               const AssessorResumeOptions& resume);
  /// Builds an engine of any topology from a parsed container.
  static RestoredAssessor assemble(ParsedCheckpoint parsed,
                                   dist::Communicator* comm,
                                   const AssessorResumeOptions& resume);
  /// Replays the delta records (per writer, per chunk) through a restored
  /// base, which must then sit at `position`.
  static void replay(Assessor& assessor,
                     const std::vector<std::vector<linalg::Mat>>& records,
                     std::uint64_t position);
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
/// against the remaining input before parsing and verifying afterwards
/// that the parse consumed exactly the declared bytes.
IncrementalMrdmd get_model_section(ByteReader& in, const char* what) {
  const std::uint64_t length = in.u64();
  in.require(length, 1, what);
  const std::uint64_t before = in.remaining();
  IncrementalMrdmd model = CheckpointAccess::get_model(in);
  if (before != ByteReader::kUnknown && before - in.remaining() != length) {
    throw ParseError(std::string("checkpoint section length mismatch (") +
                     what + ")");
  }
  return model;
}

// --- the section list: count, the coarse section first, then groups in
// global order. The full save writes one inline; each part starts with one.

/// Appends `model`'s image, prefixed by its byte length.
void put_section(ByteWriter& out, const IncrementalMrdmd& model) {
  const std::size_t at = out.size();
  out.u64(0);
  CheckpointAccess::put_model(out, model);
  out.patch_u64(at, out.size() - at - sizeof(std::uint64_t));
}

/// The section count, then the coarse section when `coarse` is non-null;
/// the caller writes the `groups` group sections after it.
void put_list_head(ByteWriter& out, std::size_t groups,
                   const IncrementalMrdmd* coarse) {
  out.u64(groups + (coarse != nullptr ? 1 : 0));
  if (coarse != nullptr) put_section(out, *coarse);
}

/// Reads a section list holding the coarse model when `coarse`, then the
/// models of groups [first, last). Each must match its rows and sit at
/// stream position `position`.
void get_section_list(ByteReader& in, ParsedCheckpoint& parsed,
                      std::size_t first, std::size_t last, bool coarse,
                      std::uint64_t position) {
  if (in.u64() != (last - first) + (coarse ? 1 : 0)) {
    throw ParseError("checkpoint section count mismatch");
  }
  const auto check = [position](const IncrementalMrdmd& model,
                                std::size_t rows, const char* what) {
    if (model.sensors() != rows) {
      throw ParseError(std::string("checkpoint ") + what +
                       " row count disagrees with the partition");
    }
    if (model.time_steps() != position) {
      throw ParseError(std::string("checkpoint ") + what +
                       " disagrees with the stream position");
    }
  };
  if (coarse) {
    parsed.coarse_model = get_model_section(in, "coarse model section");
    check(*parsed.coarse_model, parsed.coarse_grid_rows.size(),
          "coarse model");
  }
  for (std::size_t g = first; g < last; ++g) {
    parsed.models.push_back(get_model_section(in, "group model section"));
    check(parsed.models.back(), parsed.groups[g].size(), "group model");
  }
}

/// Parses the container magic, the preamble and the writer count.
ParsedCheckpoint parse_preamble(ByteReader& in) {
  expect_magic(in, kEngineMagic, "not an imrdmd engine checkpoint (bad magic)");
  ParsedCheckpoint parsed;
  get_stage_options(in, parsed.stage_options);
  parsed.chunks_processed = in.u64();
  parsed.stream_position = in.u64();
  parsed.stage_state = get_stage_state(in);
  if (parsed.chunks_processed == 0) {
    throw ParseError("checkpoint has no processed chunks");
  }

  parsed.sensors = in.u64();
  if (parsed.sensors == 0 || parsed.sensors > (std::uint64_t{1} << 32)) {
    throw ParseError("checkpoint sensor count implausible");
  }
  const std::uint64_t group_count = in.u64();
  if (group_count == 0 || group_count > parsed.sensors) {
    throw ParseError("checkpoint group count implausible");
  }
  // Every group carries at least its size word; a partition of `sensors`
  // carries exactly `sensors` index words in total. Bound both before any
  // group drives an allocation.
  in.require(group_count + parsed.sensors, sizeof(std::uint64_t), "groups");
  parsed.groups.resize(group_count);
  for (auto& group : parsed.groups) {
    const std::uint64_t size = in.u64();
    if (size > parsed.sensors) {
      throw ParseError("checkpoint group size implausible");
    }
    group = get_indices(in, size, parsed.sensors, "group sensor index");
  }

  parsed.coarse_stride = in.u64();
  if (parsed.coarse_stride > (std::uint64_t{1} << 32)) {
    throw ParseError("checkpoint coarse stride implausible");
  }
  if (parsed.coarse_stride > 0) {
    const std::uint64_t grid_count = in.u64();
    if (grid_count == 0 || grid_count > parsed.sensors) {
      throw ParseError("checkpoint coarse grid implausible");
    }
    parsed.coarse_grid_rows =
        get_indices(in, grid_count, parsed.sensors, "coarse grid row");
    const std::uint64_t interp_count = in.u64();
    if (interp_count != parsed.sensors) {
      throw ParseError("checkpoint interpolation map count mismatch");
    }
    in.require(interp_count, 2 * sizeof(std::uint64_t) + sizeof(double),
               "interpolation map");
    parsed.interp.resize(interp_count);
    for (ModelStack::Interp& ip : parsed.interp) {
      ip.lo = static_cast<std::size_t>(in.u64());
      ip.hi = static_cast<std::size_t>(in.u64());
      ip.w = in.f64();
      if (ip.lo >= grid_count || ip.hi >= grid_count) {
        throw ParseError("checkpoint interpolation row out of range");
      }
      // ModelStack::interp_at writes an exact row (hi == lo) or a pair of
      // neighbouring grid rows with w in [0, 1); anything else would
      // extrapolate, or poison the residual with NaN.
      if ((ip.hi != ip.lo && ip.hi != ip.lo + 1) ||
          !(ip.w >= 0.0 && ip.w < 1.0)) {
        throw ParseError("checkpoint interpolation entry out of range");
      }
    }
  }

  parsed.writers = in.u64();
  if (parsed.writers > (std::uint64_t{1} << 20)) {
    throw ParseError("checkpoint writer count implausible");
  }
  return parsed;
}

Manifest get_manifest(ByteReader& in, const ParsedCheckpoint& parsed) {
  in.require(parsed.writers * 2 + 3, sizeof(std::uint64_t), "delta manifest");
  Manifest manifest;
  manifest.epoch = in.u64();
  manifest.part_bytes.resize(parsed.writers);
  manifest.part_digest.resize(parsed.writers);
  for (std::uint64_t w = 0; w < parsed.writers; ++w) {
    manifest.part_bytes[w] = in.u64();
    manifest.part_digest[w] = in.u64();
  }
  manifest.base_chunks = in.u64();
  manifest.base_position = in.u64();
  if (manifest.base_chunks == 0 ||
      manifest.base_chunks > parsed.chunks_processed ||
      manifest.base_position > parsed.stream_position) {
    throw ParseError("delta checkpoint base counters implausible");
  }
  return manifest;
}

/// The epoch and writer count of the checkpoint already at `path`; (0, 0)
/// when it is missing, unparseable or a full save, none of which names
/// parts.
std::pair<std::size_t, std::size_t> existing_epoch(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return {0, 0};
  try {
    ByteReader in(file);
    const ParsedCheckpoint parsed = parse_preamble(in);
    if (parsed.writers == 0) return {0, 0};
    return {static_cast<std::size_t>(get_manifest(in, parsed).epoch),
            static_cast<std::size_t>(parsed.writers)};
  } catch (const ParseError&) {
    return {0, 0};
  }
}

/// Reads every part the manifest names: each writer's section list into
/// `parsed` (writer w owned rank_group_range(G, W, w), so the groups arrive
/// in global order) and the raw-row records journaled after it, returned
/// per writer, per chunk.
std::vector<std::vector<linalg::Mat>> read_parts(const std::string& path,
                                                 const Manifest& manifest,
                                                 ParsedCheckpoint& parsed) {
  const std::size_t writers = manifest.part_bytes.size();
  const std::size_t record_count =
      static_cast<std::size_t>(parsed.chunks_processed - manifest.base_chunks);
  std::vector<std::vector<linalg::Mat>> records(writers);
  for (std::size_t w = 0; w < writers; ++w) {
    const auto range = rank_group_range(parsed.groups.size(), writers, w);
    std::size_t rows = 0;
    for (std::size_t g = range.first; g < range.second; ++g) {
      rows += parsed.groups[g].size();
    }
    const std::string name = part_path(path, w, manifest.epoch);
    std::ifstream file(name, std::ios::binary);
    if (!file) throw ParseError("delta checkpoint part missing: " + name);
    // Bounded by the file's size before the allocation: a corrupted
    // manifest length fails as a truncated part, not as a giant buffer.
    ByteReader part_file(file);
    const std::vector<std::uint8_t> data =
        part_file.array<std::uint8_t>(manifest.part_bytes[w], name.c_str());
    // A longer file is fine (a torn append past the manifest's bytes); a
    // digest mismatch inside them is not.
    if (fnv1a64(data.data(), data.size()) != manifest.part_digest[w]) {
      throw ParseError("delta checkpoint part digest mismatch: " + name);
    }
    ByteReader part(data);
    expect_magic(part, kPartMagic, "not an imrdmd delta part (bad magic)");
    get_section_list(part, parsed, range.first, range.second,
                     w == 0 && parsed.coarse_stride > 0,
                     manifest.base_position);
    // Reserve against the bytes actually present, not the (corruptible)
    // manifest counter — the loop below still parses exactly record_count
    // records or fails on the bounded reader.
    records[w].reserve(std::min<std::size_t>(
        record_count, part.remaining() / (2 * sizeof(std::uint64_t)) + 1));
    for (std::size_t i = 0; i < record_count; ++i) {
      linalg::Mat record = part.matrix<linalg::Mat>();
      if (record.rows() != rows || record.cols() == 0) {
        throw ParseError("delta checkpoint record shape mismatch");
      }
      records[w].push_back(std::move(record));
    }
    if (part.remaining() != 0) {
      throw ParseError("delta checkpoint part has trailing bytes");
    }
  }

  // Cross-part consistency: every writer journaled the same chunk
  // sequence, and together the records span base -> final position.
  std::uint64_t replayed = 0;
  for (std::size_t i = 0; i < record_count; ++i) {
    for (std::size_t w = 1; w < writers; ++w) {
      if (records[w][i].cols() != records[0][i].cols()) {
        throw ParseError(
            "delta checkpoint parts disagree on a record's width");
      }
    }
    replayed += records[0][i].cols();
  }
  if (manifest.base_position + replayed != parsed.stream_position) {
    throw ParseError(
        "delta checkpoint records do not span the recorded stream "
        "position");
  }
  return records;
}

}  // namespace

void CheckpointAccess::put_model(ByteWriter& out,
                                 const IncrementalMrdmd& model) {
  IMRDMD_REQUIRE_ARG(model.fitted(), "cannot checkpoint an unfitted model");
  out.raw(kMagic, sizeof kMagic);

  // Options.
  const ImrdmdOptions& options = model.options_;
  out.u64(options.mrdmd.max_levels);
  out.u64(options.mrdmd.max_cycles);
  out.u64(options.mrdmd.use_svht ? 1 : 0);
  out.u64(options.mrdmd.max_rank);
  out.f64(options.mrdmd.dt);
  out.u64(static_cast<std::uint64_t>(options.mrdmd.criterion));
  out.u64(options.mrdmd.parallel_bins ? 1 : 0);
  out.u64(static_cast<std::uint64_t>(options.mrdmd.amplitude_fit));
  out.u64(options.isvd.max_rank);
  out.f64(options.isvd.truncation_tol);
  out.f64(options.drift_threshold);
  out.u64(options.recompute_on_drift ? 1 : 0);
  out.u64(options.keep_history ? 1 : 0);

  // Scalars.
  out.u64(model.sensors_);
  out.u64(model.time_steps_);
  out.u64(model.stride1_);

  // Level-1 state.
  out.matrix(model.grid_);
  out.matrix(model.isvd_.u());
  out.u64(model.isvd_.s().size());
  out.raw(model.isvd_.s().data(), model.isvd_.s().size() * sizeof(double));
  out.matrix(model.isvd_.v());
  out.u64(model.isvd_.cols_seen());

  // Tree + caches.
  out.u64(model.nodes_.size());
  for (const MrdmdNode& node : model.nodes_) put_node(out, node);
  out.matrix(model.cached_grid_recon_);
  out.matrix(model.history_);
}

IncrementalMrdmd CheckpointAccess::get_model(ByteReader& in) {
  expect_magic(in, kMagic, "not an imrdmd checkpoint (bad magic)");

  ImrdmdOptions options;
  options.mrdmd.max_levels = in.u64();
  options.mrdmd.max_cycles = in.u64();
  options.mrdmd.use_svht = get_bit(in, "use_svht") != 0;
  options.mrdmd.max_rank = in.u64();
  options.mrdmd.dt = in.f64();
  options.mrdmd.criterion =
      static_cast<SlowModeCriterion>(get_bit(in, "criterion"));
  options.mrdmd.parallel_bins = get_bit(in, "parallel_bins") != 0;
  options.mrdmd.amplitude_fit =
      static_cast<dmd::AmplitudeFit>(get_bit(in, "amplitude_fit"));
  options.isvd.max_rank = in.u64();
  options.isvd.truncation_tol = in.f64();
  options.drift_threshold = in.f64();
  options.recompute_on_drift = get_bit(in, "recompute_on_drift") != 0;
  options.keep_history = get_bit(in, "keep_history") != 0;
  if (!(options.mrdmd.dt > 0.0) || !(options.isvd.truncation_tol >= 0.0)) {
    throw ParseError("checkpoint dt or truncation_tol out of range");
  }

  IncrementalMrdmd model(options);
  model.sensors_ = in.u64();
  model.time_steps_ = in.u64();
  model.stride1_ = in.u64();

  model.grid_ = in.matrix<linalg::Mat>();
  require_finite(model.grid_, "level-1 grid");
  linalg::Mat u = in.matrix<linalg::Mat>();
  require_finite(u, "level-1 U");
  const std::uint64_t rank = in.u64();
  std::vector<double> s = in.array<double>(rank, "singular values");
  require_finite(s.data(), s.size(), "singular values");
  // The next one-column update's core solver needs s >= 0, non-increasing.
  if (!std::is_sorted(s.rbegin(), s.rend()) || (!s.empty() && s.back() < 0.0)) {
    throw ParseError("checkpoint singular values negative or unsorted");
  }
  linalg::Mat v = in.matrix<linalg::Mat>();
  require_finite(v, "level-1 V");
  const std::uint64_t cols_seen = in.u64();
  // Shape coherence is checked before assembly, so a corrupt section fails
  // here with ParseError rather than later with another error type.
  const std::size_t sensors = model.sensors_;
  const std::size_t steps = model.time_steps_;
  const std::size_t stride1 = model.stride1_;
  const std::size_t grid_cols = model.grid_.cols();
  if (stride1 == 0 || model.grid_.rows() != sensors ||
      grid_cols != steps / stride1 + (steps % stride1 != 0 ? 1 : 0) ||
      u.rows() != sensors || u.cols() != rank || v.cols() != rank ||
      v.rows() != cols_seen || v.rows() + 1 != grid_cols) {
    throw ParseError("checkpoint level-1 state inconsistent");
  }
  model.isvd_ = isvd::Isvd::from_state(options.isvd, std::move(u),
                                       std::move(s), std::move(v), cols_seen);

  const std::uint64_t node_count = in.u64();
  if (node_count == 0) throw ParseError("checkpoint has no tree nodes");
  // A node serializes to at least its 7 fixed words; bound the count before
  // reserving so a corrupted header cannot drive a huge allocation.
  in.require(node_count, 7 * sizeof(std::uint64_t), "tree nodes");
  // Cap the up-front reservation: the stream-byte bound above says nothing
  // about in-memory node size, so a garbage count within it could still
  // reserve GiBs. Growth past the cap amortizes normally.
  model.nodes_.reserve(std::min<std::uint64_t>(node_count, 1u << 16));
  for (std::uint64_t i = 0; i < node_count; ++i) {
    model.nodes_.push_back(get_node(in));
  }
  model.cached_grid_recon_ = in.matrix<linalg::Mat>();
  require_finite(model.cached_grid_recon_, "cached reconstruction");
  model.history_ = in.matrix<linalg::Mat>();
  require_finite(model.history_, "history");
  model.fitted_ = true;

  // Consistency checks: the restored state must be internally coherent.
  if (model.nodes_[0].t_end != steps || model.nodes_[0].level != 1) {
    throw ParseError("checkpoint root node inconsistent");
  }
  for (const MrdmdNode& node : model.nodes_) {
    if (node.stride == 0 || node.t_begin >= node.t_end ||
        node.t_end > steps || node.modes.cols() != node.mode_count() ||
        (node.mode_count() > 0 && node.modes.rows() != sensors)) {
      throw ParseError("checkpoint tree node inconsistent");
    }
  }
  const linalg::Mat& history = model.history_;
  if (model.cached_grid_recon_.rows() != sensors ||
      model.cached_grid_recon_.cols() != grid_cols ||
      (model.options_.keep_history
           ? history.rows() != sensors || history.cols() != steps
           : !history.empty())) {
    throw ParseError("checkpoint caches out of sync with the level-1 grid");
  }
  return model;
}

namespace {

/// Packs one rank's length-prefixed model sections into the doubles the
/// communicator speaks: [byte count, then the bytes, zero-padded to whole
/// words]. The count rides as an exact integer (far below 2^53).
std::vector<double> pack_sections(
    const std::vector<std::vector<std::uint8_t>>& sections) {
  std::size_t bytes = 0;
  for (const auto& section : sections) bytes += section.size();
  std::vector<double> blob(1 + (bytes + 7) / 8, 0.0);
  blob[0] = static_cast<double>(bytes);
  char* cursor = reinterpret_cast<char*>(blob.data() + 1);
  for (const auto& section : sections) {
    std::memcpy(cursor, section.data(), section.size());
    cursor += section.size();
  }
  return blob;
}

}  // namespace

void CheckpointAccess::put_preamble(ByteWriter& out,
                                    const Assessor& assessor,
                                    std::uint64_t writers) {
  out.raw(kEngineMagic, sizeof kEngineMagic);
  put_stage_options(out, assessor.config_.pipeline_options);
  out.u64(assessor.chunks_processed_);
  out.u64(assessor.snapshots_seen_);
  put_stage_state(out, assessor.zscore_stage_.state());
  out.u64(assessor.sensors_);
  out.u64(assessor.groups_.size());
  for (const auto& group : assessor.groups_) {
    out.u64(group.size());
    for (std::size_t sensor : group) out.u64(sensor);
  }
  const ModelStack& stack = assessor.stack_;
  out.u64(stack.coarse_stride());
  if (stack.hierarchical()) {
    out.u64(stack.rows_.size());
    for (std::size_t row : stack.rows_) out.u64(row);
    out.u64(stack.interp_.size());
    for (const auto& ip : stack.interp_) {
      out.u64(ip.lo);
      out.u64(ip.hi);
      out.f64(ip.w);
    }
  }
  out.u64(writers);
}

void CheckpointAccess::save_full(std::ostream* out, const Assessor& assessor) {
  dist::Communicator* comm = assessor.comm_;
  const bool root = assessor.rank() == 0;
  IMRDMD_REQUIRE_ARG(root == (out != nullptr),
                     "the checkpoint stream lives on rank 0 only (pass "
                     "nullptr on the other ranks)");
  // chunks_processed_ is replicated, so on an unstarted engine every rank
  // throws here together — before any collective.
  IMRDMD_REQUIRE_ARG(assessor.chunks_processed_ >= 1,
                     "cannot checkpoint a fleet before its first chunk");

  const auto put_head = [&assessor, out] {
    ByteWriter head;
    put_preamble(head, assessor, 0);
    put_list_head(head, assessor.groups_.size(),
                  assessor.stack_.hierarchical() ? &assessor.stack_.coarse()
                                                 : nullptr);
    write_bytes(*out, head.bytes());
  };
  // Without a gather to wait for, the coarse image is written (and freed)
  // before the group images exist, so peak memory holds only one of them.
  if (comm == nullptr) put_head();

  // Serialize this process's groups' model sections concurrently across
  // its lanes (the same lane structure process() uses), in local group
  // order.
  const std::size_t local_count = assessor.local_end_ - assessor.local_begin_;
  std::vector<std::vector<std::uint8_t>> sections(local_count);
  parallel_for(
      0, assessor.lanes_,
      [&assessor, &sections, local_count](std::size_t lane) {
        for (std::size_t l = lane; l < local_count; l += assessor.lanes_) {
          ByteWriter section;
          put_section(section, assessor.stack_.fine(l));
          sections[l] = section.take();
        }
      },
      &assessor.pool());

  if (comm == nullptr) {
    for (const auto& section : sections) write_bytes(*out, section);
  } else {
    // One ragged gather moves every rank's sections to the writer. Rank
    // blocks arrive in rank order and ownership ranges are contiguous, so
    // concatenation IS global group order: the bytes are the same for any
    // lane or rank count.
    const std::vector<double> blob = pack_sections(sections);
    const std::vector<std::vector<double>> blobs = comm->gatherv(
        std::span<const double>(blob.data(), blob.size()), 0);
    if (!root) return;
    // Rank 0's coarse replica is every rank's coarse replica (the coarse
    // update is deterministic over the agreed coarse grid rows), so the
    // coarse section needs no gather.
    put_head();
    for (const std::vector<double>& rank_blob : blobs) {
      const auto bytes = static_cast<std::size_t>(rank_blob.at(0));
      IMRDMD_REQUIRE_DIMS(1 + (bytes + 7) / 8 == rank_blob.size(),
                          "distributed checkpoint rank blob size mismatch");
      out->write(reinterpret_cast<const char*>(rank_blob.data() + 1),
                 static_cast<std::streamsize>(bytes));
    }
  }
  if (!*out) throw Error("engine checkpoint write failed");
}

void CheckpointAccess::save_delta(const std::string& path,
                                  Assessor& assessor) {
  DeltaJournal& journal = assessor.journal_;
  dist::Communicator* comm = assessor.comm_;
  const auto writers = static_cast<std::size_t>(assessor.ranks());
  const auto writer = static_cast<std::size_t>(assessor.rank());
  const bool root = writer == 0;

  // Base rewrite on the first save at this path, after a resume or an
  // elastic growth; otherwise append only the rows processed since the
  // last save. Every input to this decision is replicated, so all ranks
  // agree.
  if (!journal.appendable_) {
    // A monotonic epoch names the part files, so a base rewrite never
    // touches the files the still-current main references — a crash
    // before the main rewrite leaves the previous checkpoint whole.
    const std::size_t epoch = journal.epoch_ + 1;
    const std::size_t local_count =
        assessor.local_end_ - assessor.local_begin_;
    // Each section is written straight into the part buffer.
    ByteWriter part;
    part.raw(kPartMagic, sizeof kPartMagic);
    put_list_head(part, local_count,
                  root && assessor.stack_.hierarchical()
                      ? &assessor.stack_.coarse()
                      : nullptr);
    for (std::size_t l = 0; l < local_count; ++l) {
      put_section(part, assessor.stack_.fine(l));
    }
    const std::vector<std::uint8_t>& bytes = part.bytes();
    std::ofstream out(part_path(path, writer, epoch),
                      std::ios::binary | std::ios::trunc);
    write_bytes(out, bytes);
    out.flush();
    if (!out) throw Error("delta checkpoint part write failed");
    journal.part_bytes_ = bytes.size();
    journal.part_digest_ = fnv1a64(bytes.data(), bytes.size());
    journal.epoch_ = epoch;
    journal.writers_ = writers;
    journal.base_chunks_ = assessor.chunks_processed_;
    journal.base_position_ = assessor.snapshots_seen_;
    // The base is the full current model state, so it subsumes whatever
    // rows were pending.
    journal.pending_.clear();
    journal.appendable_ = true;
  } else {
    ByteWriter append;
    for (const linalg::Mat& record : journal.pending_) append.matrix(record);
    const std::vector<std::uint8_t>& bytes = append.bytes();
    if (!bytes.empty()) {
      std::ofstream out(part_path(path, writer, journal.epoch_),
                        std::ios::binary | std::ios::app);
      write_bytes(out, bytes);
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
  const std::vector<double> mine = {
      static_cast<double>(journal.part_bytes_),
      static_cast<double>(journal.part_digest_ >> 32),
      static_cast<double>(journal.part_digest_ & 0xffffffffull)};
  const std::vector<std::vector<double>> slots =
      comm != nullptr ? comm->gatherv(std::span<const double>(mine), 0)
                      : std::vector<std::vector<double>>{mine};
  if (root) {
    ByteWriter main;
    put_preamble(main, assessor, writers);
    main.u64(journal.epoch_);
    for (const std::vector<double>& slot : slots) {
      IMRDMD_REQUIRE_DIMS(slot.size() == 3,
                          "delta checkpoint manifest slot has the wrong "
                          "length");
      main.u64(static_cast<std::uint64_t>(slot[0]));
      main.u64((static_cast<std::uint64_t>(slot[1]) << 32) |
               static_cast<std::uint64_t>(slot[2]));
    }
    main.u64(journal.base_chunks_);
    main.u64(journal.base_position_);
    write_file_atomic(path, [&main](std::ostream& out) {
      write_bytes(out, main.bytes());
      if (!out) throw Error("delta checkpoint manifest write failed");
    });
  }
}

void CheckpointAccess::save_file(const std::string& path, Assessor& assessor) {
  IMRDMD_REQUIRE_ARG(assessor.chunks_processed_ >= 1,
                     "cannot checkpoint a fleet before its first chunk");
  DeltaJournal& journal = assessor.journal_;
  dist::Communicator* comm = assessor.comm_;
  const auto writers = static_cast<std::size_t>(assessor.ranks());
  const auto writer = static_cast<std::size_t>(assessor.rank());
  if (journal.path_ != path) {
    // A path this engine has neither written nor loaded: continue the epoch
    // of the checkpoint already there, so a base write never truncates the
    // parts its main names, and those parts retire below. Every rank reads
    // before the save's first collective, so none sees rank 0's rewrite.
    const auto [epoch, parts] = existing_epoch(path);
    journal.path_ = path;
    journal.epoch_ = epoch;
    journal.writers_ = parts;
    journal.appendable_ = false;
  }
  // The parts the main at `path` names until this save replaces it.
  const std::size_t old_epoch = journal.epoch_;
  const std::size_t old_writers = journal.writers_;

  if (assessor.config_.checkpoint_policy.delta) {
    save_delta(path, assessor);
  } else {
    if (writer == 0) {
      write_file_atomic(path, [&assessor](std::ostream& out) {
        save_full(&out, assessor);
      });
    } else {
      save_full(nullptr, assessor);  // peers only feed the gather
    }
    journal.writers_ = 0;
  }

  if (old_writers > 0 &&
      (journal.writers_ == 0 || journal.epoch_ != old_epoch)) {
    // Retire every part of the superseded epoch — including those of
    // writers a resume at fewer ranks no longer has — only after the new
    // main is durable (the barrier orders every rank's removal after rank
    // 0's rewrite). A crash before this point merely orphans files; the
    // main always names its exact parts.
    if (comm != nullptr) comm->barrier();
    for (std::size_t w = writer; w < old_writers; w += writers) {
      std::remove(part_path(path, w, old_epoch).c_str());
    }
  }
}

RestoredAssessor CheckpointAccess::load(ByteReader& in,
                                        const std::string* path,
                                        dist::Communicator* comm,
                                        const AssessorResumeOptions& resume) {
  ParsedCheckpoint parsed = parse_preamble(in);
  const std::size_t writers = static_cast<std::size_t>(parsed.writers);
  Manifest manifest;
  std::vector<std::vector<linalg::Mat>> records;
  if (writers == 0) {
    get_section_list(in, parsed, 0, parsed.groups.size(),
                     parsed.coarse_stride > 0, parsed.stream_position);
  } else if (path == nullptr) {
    throw ParseError(
        "a delta checkpoint references sidecar part files; load it "
        "through the file-path API");
  } else {
    // Every process reads every part file independently: the base sections
    // restore in global group order, and the journaled records replay
    // below at ANY new rank count.
    manifest = get_manifest(in, parsed);
    records = read_parts(*path, manifest, parsed);
  }
  check_stage_state(parsed);

  RestoredAssessor restored = assemble(std::move(parsed), comm, resume);
  if (writers > 0) {
    replay(restored.assessor, records, restored.stream_position);
  }
  if (path != nullptr) {
    // Hand the loaded epoch to the resumed journal: its first save takes a
    // FRESH epoch (the main read here still references this one, and a
    // crash mid-rewrite must leave that reference loadable), then retires
    // every part of this one.
    DeltaJournal& journal = restored.assessor.journal_;
    journal.path_ = *path;
    journal.epoch_ = static_cast<std::size_t>(manifest.epoch);
    journal.writers_ = writers;
  }
  return restored;
}

void CheckpointAccess::replay(
    Assessor& assessor, const std::vector<std::vector<linalg::Mat>>& records,
    std::uint64_t position) {
  // Each journaled chunk reaches the engine's one sliced fit as this
  // process's owned rows plus the coarse grid rows, gathered from the
  // writers' slices — the identical deterministic operations the live
  // engine ran, so the resumed models are bitwise the live ones. A sensor's
  // row sits in the slice of the writer that owned its group.
  const std::size_t writers = records.size();
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
    const std::size_t cols = records[0][record].cols();
    linalg::Mat rows(sensors.size(), cols);
    for (std::size_t k = 0; k < sensors.size(); ++k) {
      const auto [w, row] = slice_row[sensors[k]];
      const double* src = records[w][record].data() + row * cols;
      std::copy(src, src + cols, rows.data() + k * cols);
    }
    return rows;
  };
  // (A flat stack's coarse grid is empty, so its coarse rows are too.)
  const std::vector<std::size_t>& owned = assessor.owned_rows_;
  const std::vector<std::size_t>& grid = assessor.stack_.coarse_rows();
  for (std::size_t i = 0; i < records[0].size(); ++i) {
    assessor.fit_owned(gather(owned, i), gather(grid, i), nullptr);
  }

  // Post-replay coherence: every restored model must have arrived exactly
  // at the manifest's final position.
  const std::size_t local_count =
      assessor.local_end_ - assessor.local_begin_;
  for (std::size_t l = 0; l < local_count; ++l) {
    if (assessor.stack_.fine(l).time_steps() != position) {
      throw ParseError("delta checkpoint replay out of sync with a model");
    }
  }
  if (assessor.stack_.hierarchical() &&
      assessor.stack_.coarse().time_steps() != position) {
    throw ParseError(
        "delta checkpoint replay out of sync with the coarse model");
  }
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
  config.hierarchy(static_cast<std::size_t>(parsed.coarse_stride));
  // The constructor re-validates the partition (disjoint, total cover) and
  // re-derives this process's ownership range — the checkpoint itself
  // carries nothing about the lane or rank count that wrote it.
  Assessor assessor(std::move(config));
  const std::size_t local_count = assessor.local_end_ - assessor.local_begin_;
  for (std::size_t l = 0; l < local_count; ++l) {
    *assessor.stack_.fine_[l] =
        std::move(parsed.models[assessor.local_begin_ + l]);
  }
  if (parsed.coarse_stride > 0) {
    // Every rank restores the full coarse replica (it is replicated at
    // runtime, so every rank needs it regardless of group ownership).
    // The explicit hierarchy map replaces the stride grid the constructor
    // derived, which elastic growth may have extended.
    ModelStack& stack = assessor.stack_;
    *stack.coarse_ = std::move(*parsed.coarse_model);
    stack.rows_ = std::move(parsed.coarse_grid_rows);
    stack.interp_ = std::move(parsed.interp);
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
  ByteWriter image;
  CheckpointAccess::put_model(image, model);
  write_bytes(out, image.bytes());
  if (!out) throw Error("checkpoint write failed");
}

IncrementalMrdmd load_checkpoint(std::istream& raw) {
  ByteReader in(raw);
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
  CheckpointAccess::save_full(&out, assessor);
}

void save_assessor_checkpoint(std::ostream* out, const Assessor& assessor) {
  CheckpointAccess::save_full(out, assessor);
}

void save_assessor_checkpoint_file(const std::string& path,
                                   Assessor& assessor) {
  CheckpointAccess::save_file(path, assessor);
}

namespace {

RestoredAssessor load_file(const std::string& path, dist::Communicator* comm,
                           const AssessorResumeOptions& resume) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw Error("cannot open checkpoint for reading: " + path);
  ByteReader in(file);
  return CheckpointAccess::load(in, &path, comm, resume);
}

}  // namespace

RestoredAssessor load_assessor_checkpoint(std::istream& raw,
                                          const AssessorResumeOptions& resume) {
  ByteReader in(raw);
  return CheckpointAccess::load(in, nullptr, nullptr, resume);
}

RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, const AssessorResumeOptions& resume) {
  return load_file(path, nullptr, resume);
}

RestoredAssessor load_assessor_checkpoint(std::istream& raw,
                                          dist::Communicator& comm,
                                          const AssessorResumeOptions& resume) {
  ByteReader in(raw);
  return CheckpointAccess::load(in, nullptr, &comm, resume);
}

RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, dist::Communicator& comm,
    const AssessorResumeOptions& resume) {
  return load_file(path, &comm, resume);
}

}  // namespace imrdmd::core
