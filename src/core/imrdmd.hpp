// I-mrDMD: incremental multiresolution DMD (paper Sec. III-A.1, Algorithm 1,
// Fig. 1(c)) — the paper's primary contribution.
//
// State after the initial fit on T snapshots: a level-1 "root" whose SVD is
// held in an incrementally updatable form (isvd::Isvd over the level-1
// subsample grid), plus the batch-fitted deeper levels.
//
// partial_fit(T1 new snapshots):
//   1. The level-1 subsample grid is extended (the stride is *fixed at the
//      initial fit* — ingested data cannot be re-decimated retroactively;
//      this is the one deviation from an oracle re-fit and is measured by
//      the Q2 accuracy bench).
//   2. The level-1 SVD is updated incrementally (Algo 1, line 3) and the
//      root's DMD modes recomputed from the updated factors — cost
//      independent of T.
//   3. Every other node shifts one level down (Algo 1, lines 7-9): the old
//      tree becomes the left descendants of the timeline now split at T.
//   4. The new span [T, T+T1) is fitted fresh at levels 2.. on the residual
//      after subtracting the *new* root reconstruction (Fig. 1(c), right).
//   5. The drift statistic ||new slow recon - old slow recon||_F over
//      [0, T) — the paper's trigger for asynchronously refreshing stale
//      levels 2..L — is evaluated on the level-1 grid (exact at grid
//      points, scaled by sqrt(stride) to estimate the full-span norm).
//      When `recompute_on_drift` is set (the paper's deferred future work)
//      and the threshold is exceeded, levels >= 2 are refitted from the
//      retained history.
//
// The updated root *replaces* the old level-1 node over [0, T) (it is the
// same node, incrementally extended). The stale descendants were fitted
// against the old root's slow field, so reconstruction error grows with the
// root's drift — exactly the incremental error the paper reports in Q2
// ("a sum of 10-5000 depending on the dynamics and the updates").
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/mrdmd.hpp"
#include "isvd/isvd.hpp"

namespace imrdmd::core {

struct ImrdmdOptions {
  MrdmdOptions mrdmd;
  /// Rank-q truncation of the incrementally maintained level-1 SVD.
  isvd::IsvdOptions isvd;
  /// Drift threshold (full-span Frobenius estimate) above which stale
  /// levels are flagged (and refitted when recompute_on_drift).
  double drift_threshold = std::numeric_limits<double>::infinity();
  /// Extension beyond the paper: refit levels >= 2 when drift exceeds the
  /// threshold. Requires keep_history.
  bool recompute_on_drift = false;
  /// Retain the raw data (needed only by recompute_on_drift).
  bool keep_history = false;
};

/// Outcome of one partial_fit call.
struct PartialFitReport {
  std::size_t new_snapshots = 0;
  std::size_t total_snapshots = 0;
  /// Raw Frobenius norm of (new - old) level-1 slow reconstruction at the
  /// grid points of [0, T_prev).
  double drift_grid = 0.0;
  /// sqrt(stride)-scaled estimate of the same norm over every snapshot.
  double drift_estimate = 0.0;
  bool drift_exceeded = false;
  bool recomputed = false;
  /// Nodes added for the new span (excluding the updated root).
  std::size_t new_nodes = 0;
  /// Grid columns folded into the level-1 incremental SVD.
  std::size_t new_grid_columns = 0;
};

class IncrementalMrdmd {
 public:
  explicit IncrementalMrdmd(ImrdmdOptions options = {});

  /// Batch-fits the first T snapshots (T >= 8*max_cycles); the level-1 SVD
  /// is seeded into its incremental form.
  void initial_fit(const Mat& data);

  /// Folds `new_cols` (P x T1) into the decomposition.
  PartialFitReport partial_fit(const Mat& new_cols);

  bool fitted() const { return fitted_; }
  std::size_t sensors() const { return sensors_; }
  std::size_t time_steps() const { return time_steps_; }
  const ImrdmdOptions& options() const { return options_; }

  /// All nodes; nodes_[0] is always the (incrementally updated) root.
  const std::vector<MrdmdNode>& nodes() const { return nodes_; }
  const MrdmdNode& root() const;

  std::size_t total_modes() const { return core::total_modes(nodes_); }

  /// Stride of the level-1 subsample grid (fixed at initial_fit).
  std::size_t level1_stride() const { return stride1_; }

  /// Rank of the incrementally maintained level-1 SVD.
  std::size_t level1_rank() const { return isvd_.rank(); }

  Mat reconstruct(const dmd::ModeBand* band = nullptr) const;
  Mat reconstruct(std::size_t t0, std::size_t t1,
                  const dmd::ModeBand* band = nullptr,
                  std::size_t level_min = 0, std::size_t level_max = 0) const;

  std::vector<dmd::SpectrumPoint> spectrum() const {
    return core::spectrum(nodes_, options_.mrdmd.dt);
  }
  /// Per-sensor aggregate mode magnitude (input to z-scoring). const, but
  /// fills each node's magnitude_terms on first read (mode_magnitudes), so
  /// one thread at a time may use the model.
  std::vector<double> magnitudes(const dmd::ModeBand* band = nullptr) const;

  // --- Extensions beyond the paper (its Sec. VI future work) -------------

  /// Replaces every non-root node with `descendants` (levels >= 2) — how
  /// recompute_on_drift and add_sensors install their refit from history.
  void replace_descendants(std::vector<MrdmdNode> descendants);

  /// Incrementally adds new sensors (paper: "extend the I-mrDMD approach to
  /// add new entire time series or sensor measurements incrementally").
  /// `new_rows_history` is w x time_steps(): the new sensors' history. The
  /// level-1 SVD is extended by the incremental row update; descendant
  /// levels are refit from history (requires keep_history).
  void add_sensors(const Mat& new_rows_history);

 private:
  /// Single point of access for the checkpoint module (core/checkpoint.cpp):
  /// the IMRDMD1 model section is read and written through it.
  friend struct CheckpointAccess;

  /// Refits the root node (fit_node) from the current iSVD state.
  void refresh_root();
  /// Root's slow reconstruction at every level-1 grid column.
  Mat root_grid_reconstruction() const;

  ImrdmdOptions options_;
  bool fitted_ = false;
  std::size_t sensors_ = 0;
  std::size_t time_steps_ = 0;
  std::size_t stride1_ = 1;

  /// Level-1 subsample grid snapshots (P x K), K grid columns at snapshot
  /// indices 0, stride1, 2*stride1, ...
  Mat grid_;
  isvd::Isvd isvd_;

  std::vector<MrdmdNode> nodes_;  // nodes_[0] = root
  /// Root slow reconstruction at grid points, cached for the drift stat.
  Mat cached_grid_recon_;
  /// Full raw data, kept only when options_.keep_history.
  Mat history_;
};

}  // namespace imrdmd::core
