#include "core/imrdmd.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"

namespace imrdmd::core {

namespace {

// Batch-refits the descendant levels (>= 2) of a tree whose root is given:
// subtract the root's reconstruction from `data`, split the timeline in
// half, and run the level recursion on both halves (the batch tree layout).
//
// The two halves are independent sub-trees; seeding one worklist with both
// half-bins lets fit_levels drive every bin of a level — across both
// sub-trees — through a single ThreadPool::parallel_for on the shared
// residual, instead of fitting the halves serially on copied blocks.
// Node order and bin indices match the natural level-ordered recursion.
std::vector<MrdmdNode> fit_descendants(const Mat& data, const MrdmdNode& root,
                                       const MrdmdOptions& options) {
  std::vector<MrdmdNode> nodes;
  if (options.max_levels <= 1) return nodes;
  const std::size_t sensors = data.rows();
  const std::size_t steps = data.cols();
  Mat residual = data;
  {
    Mat window(sensors, steps);
    accumulate_node(root, options.dt, nullptr, window, 0);
    residual -= window;
  }
  const std::size_t mid = steps / 2;
  std::vector<LevelBin> halves;
  if (mid > 0) halves.push_back({0, mid, 0});
  if (steps > mid) halves.push_back({mid, steps, 1});
  return fit_levels(residual, 0, 2, options.max_levels - 1, options,
                    std::move(halves));
}

}  // namespace

IncrementalMrdmd::IncrementalMrdmd(ImrdmdOptions options)
    : options_(options), isvd_(options.isvd) {
  // Recomputation refits levels >= 2 from raw data, so history is implied.
  if (options_.recompute_on_drift) options_.keep_history = true;
}

void IncrementalMrdmd::initial_fit(const Mat& data) {
  IMRDMD_REQUIRE_ARG(!fitted_, "initial_fit called twice");
  const std::size_t nyq = options_.mrdmd.nyquist_snapshots();
  IMRDMD_REQUIRE_DIMS(data.cols() >= nyq,
                      "initial_fit needs at least 8*max_cycles snapshots");
  sensors_ = data.rows();
  time_steps_ = data.cols();
  stride1_ = data.cols() / nyq;

  // Level-1 subsample grid and the incrementally maintained SVD of
  // X = grid[:, :-1].
  grid_ = subsample(data, 0, data.cols(), stride1_);
  isvd_.initialize(grid_.block(0, 0, sensors_, grid_.cols() - 1));

  nodes_.clear();
  nodes_.emplace_back();  // root placeholder; refresh_root fills it
  refresh_root();

  // Deeper levels: batch recursion on the residual after the root (level 2
  // starts from the halves of [0, T), matching the batch tree).
  auto descendants = fit_descendants(data, nodes_[0], options_.mrdmd);
  nodes_.insert(nodes_.end(), std::make_move_iterator(descendants.begin()),
                std::make_move_iterator(descendants.end()));

  cached_grid_recon_ = root_grid_reconstruction();
  if (options_.keep_history) history_ = data;
  fitted_ = true;
}

PartialFitReport IncrementalMrdmd::partial_fit(const Mat& new_cols) {
  IMRDMD_REQUIRE_ARG(fitted_, "partial_fit before initial_fit");
  IMRDMD_REQUIRE_DIMS(new_cols.rows() == sensors_,
                      "partial_fit sensor count mismatch");
  PartialFitReport report;
  report.new_snapshots = new_cols.cols();
  if (new_cols.cols() == 0) {
    report.total_snapshots = time_steps_;
    return report;
  }
  const std::size_t t_prev = time_steps_;
  const std::size_t t_new = t_prev + new_cols.cols();
  const std::size_t k_old = grid_.cols();

  // 1. Extend the level-1 grid with the fixed initial stride. Every multiple
  // of stride1_ below t_prev is already gridded, so the next grid snapshot
  // falls in new_cols (or past it).
  const std::size_t next = k_old * stride1_;
  IMRDMD_REQUIRE_DIMS(next >= t_prev, "grid invariant violated");
  if (next < t_new) {
    const Mat fresh = subsample(new_cols, next - t_prev, new_cols.cols(),
                                stride1_);
    Mat extended(sensors_, k_old + fresh.cols());
    extended.set_block(0, 0, grid_);
    extended.set_block(0, k_old, fresh);
    grid_ = std::move(extended);
  }
  const std::size_t k_new = grid_.cols();

  // 2. Incremental SVD update with the new X columns (X = grid[:, :-1], so
  // columns k_old-1 .. k_new-2 are new to X).
  if (k_new > k_old) {
    const std::size_t first_new_x = k_old - 1;
    const std::size_t new_x_cols = (k_new - 1) - first_new_x;
    if (new_x_cols > 0) {
      isvd_.update(grid_.block(0, first_new_x, sensors_, new_x_cols));
      report.new_grid_columns = new_x_cols;
    }
  }

  // 3. Drift statistic: the root's slow field before vs after the update,
  // compared at the old grid points.
  time_steps_ = t_new;  // refresh_root uses the new span for rho
  refresh_root();
  const Mat new_grid_recon = root_grid_reconstruction();
  double drift_sq = 0.0;
  for (std::size_t r = 0; r < sensors_; ++r) {
    for (std::size_t c = 0; c < k_old; ++c) {
      const double d = new_grid_recon(r, c) - cached_grid_recon_(r, c);
      drift_sq += d * d;
    }
  }
  report.drift_grid = std::sqrt(drift_sq);
  report.drift_estimate =
      report.drift_grid * std::sqrt(static_cast<double>(stride1_));
  // Copied, not moved: moving it raised the Polaris replay's peak RSS by
  // about 4 MiB.
  cached_grid_recon_ = new_grid_recon;
  report.drift_exceeded = report.drift_estimate > options_.drift_threshold;

  // 4. Level shift (Algo 1 lines 7-9): the old descendants drop one level.
  for (std::size_t i = 1; i < nodes_.size(); ++i) nodes_[i].level += 1;

  // 5. Fresh sub-fit of the new span on the residual after the new root.
  {
    Mat residual = new_cols;
    Mat window(sensors_, new_cols.cols());
    accumulate_node(nodes_[0], options_.mrdmd.dt, nullptr, window, t_prev);
    residual -= window;
    if (options_.mrdmd.max_levels > 1) {
      auto fresh_nodes = fit_levels(residual, t_prev, 2,
                                    options_.mrdmd.max_levels - 1,
                                    options_.mrdmd);
      report.new_nodes = fresh_nodes.size();
      nodes_.insert(nodes_.end(),
                    std::make_move_iterator(fresh_nodes.begin()),
                    std::make_move_iterator(fresh_nodes.end()));
    }
  }

  if (options_.keep_history) {
    Mat extended(sensors_, t_new);
    extended.set_block(0, 0, history_);
    extended.set_block(0, t_prev, new_cols);
    history_ = std::move(extended);
  }

  // 6. Optional stale-level recomputation (the paper's deferred step).
  if (report.drift_exceeded && options_.recompute_on_drift) {
    IMRDMD_REQUIRE_ARG(!history_.empty(),
                       "recompute_on_drift requires keep_history");
    IMRDMD_INFO << "I-mrDMD drift " << report.drift_estimate
                << " exceeded threshold; refitting levels >= 2";
    replace_descendants(fit_descendants(history_, nodes_[0], options_.mrdmd));
    report.recomputed = true;
  }

  report.total_snapshots = time_steps_;
  return report;
}

void IncrementalMrdmd::replace_descendants(std::vector<MrdmdNode> descendants) {
  IMRDMD_REQUIRE_ARG(fitted_, "replace_descendants before initial_fit");
  for (const MrdmdNode& node : descendants) {
    IMRDMD_REQUIRE_ARG(node.level >= 2, "descendants must have level >= 2");
    IMRDMD_REQUIRE_DIMS(node.mode_count() == 0 ||
                            node.modes.rows() == sensors_,
                        "descendant sensor count mismatch");
  }
  MrdmdNode root = std::move(nodes_[0]);
  nodes_.clear();
  nodes_.push_back(std::move(root));
  nodes_.insert(nodes_.end(), std::make_move_iterator(descendants.begin()),
                std::make_move_iterator(descendants.end()));
}

void IncrementalMrdmd::add_sensors(const Mat& new_rows_history) {
  IMRDMD_REQUIRE_ARG(fitted_, "add_sensors before initial_fit");
  IMRDMD_REQUIRE_ARG(options_.keep_history,
                     "add_sensors requires keep_history (descendant levels "
                     "are refit from history)");
  IMRDMD_REQUIRE_DIMS(new_rows_history.cols() == time_steps_,
                      "add_sensors history must cover all time steps");
  const std::size_t w = new_rows_history.rows();
  if (w == 0) return;

  // Extend the raw history and the level-1 grid.
  Mat history(sensors_ + w, time_steps_);
  history.set_block(0, 0, history_);
  history.set_block(sensors_, 0, new_rows_history);
  history_ = std::move(history);

  const std::size_t k = grid_.cols();
  Mat grid(sensors_ + w, k);
  grid.set_block(0, 0, grid_);
  grid.set_block(sensors_, 0,
                 subsample(new_rows_history, 0, time_steps_, stride1_));
  grid_ = std::move(grid);

  // Incremental row update of the level-1 SVD (X = grid[:, :-1]).
  isvd_.add_rows(grid_.block(sensors_, 0, w, k - 1));
  sensors_ += w;

  // Refresh the root from the extended factors, then refit descendants.
  refresh_root();
  cached_grid_recon_ = root_grid_reconstruction();
  replace_descendants(fit_descendants(history_, nodes_[0], options_.mrdmd));
}

void IncrementalMrdmd::refresh_root() {
  nodes_[0] = fit_node({.level = 1,
                        .bin_index = 0,
                        .t_begin = 0,
                        .t_end = time_steps_,
                        .stride = stride1_},
                       grid_, isvd_.u(), isvd_.s(), isvd_.v(), options_.mrdmd);
}

Mat IncrementalMrdmd::root_grid_reconstruction() const {
  // Grid column j sits at snapshot j * stride1, i.e. lambda^j exactly.
  Mat out(sensors_, grid_.cols());
  accumulate_node(nodes_[0], options_.mrdmd.dt, nullptr, out, 0, stride1_);
  return out;
}

const MrdmdNode& IncrementalMrdmd::root() const {
  IMRDMD_REQUIRE_ARG(fitted_, "root() before initial_fit");
  return nodes_[0];
}

Mat IncrementalMrdmd::reconstruct(const dmd::ModeBand* band) const {
  return reconstruct(0, time_steps_, band);
}

Mat IncrementalMrdmd::reconstruct(std::size_t t0, std::size_t t1,
                                  const dmd::ModeBand* band,
                                  std::size_t level_min,
                                  std::size_t level_max) const {
  IMRDMD_REQUIRE_ARG(fitted_, "reconstruct before initial_fit");
  return reconstruct_nodes(nodes_, sensors_, t0, t1, options_.mrdmd.dt, band,
                           level_min, level_max);
}

std::vector<double> IncrementalMrdmd::magnitudes(
    const dmd::ModeBand* band) const {
  IMRDMD_REQUIRE_ARG(fitted_, "magnitudes before initial_fit");
  return mode_magnitudes(nodes_, sensors_, options_.mrdmd.dt, band);
}

}  // namespace imrdmd::core
