// Two-level multifidelity model composition (paper's multifidelity premise;
// Peherstorfer et al.'s survey, PAPERS.md): a cheap COARSE facility-level
// I-mrDMD over a deterministic subsampled sensor grid captures cross-group
// coherent structure (a building-wide thermal trend) that G independent
// per-group models each see only a sliver of, and the per-group FINE models
// then fit the residual after subtracting the coarse reconstruction.
//
// ModelStack is the composition seam between core/imrdmd (one model) and
// core/assessor (the engine): it owns both levels — the fine models the
// engine's lanes update, and the optional coarse model — plus the coarse
// grid and the interpolation map that carries coarse-level quantities back
// to full sensor width.
//
// Determinism contract (relied on for the engine's lane/rank/depth bitwise
// invariance): the coarse grid is a pure function of (groups, stride) — for
// each group, in group order, every coarse_stride-th sensor of the group's
// list (each group contributes at least its first sensor) — and
// update_coarse is a deterministic function of the coarse grid rows and the
// coarse model state, run unsharded on the caller thread. Every rank of a
// distributed engine replicates it on the same grid rows, so the replicas
// agree bitwise forever.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/imrdmd.hpp"
#include "dmd/spectrum.hpp"

namespace imrdmd::core {

/// Result of folding one chunk into the coarse level.
struct CoarseUpdate {
  /// Coarse-model partial-fit diagnostics (default on the initial fit).
  PartialFitReport report;
  /// Band-filtered coarse mode magnitudes, interpolated to full sensor
  /// width (machine sensor order).
  std::vector<double> magnitudes;
  /// Wall time of the coarse fit + reconstruction + residual subtraction.
  double fit_seconds = 0.0;
};

/// The composable two-level model stack. Flat (no coarse level) until
/// enable_coarse; the engine then routes every chunk through update_coarse
/// and feeds the residual to the fine models.
class ModelStack {
 public:
  /// Linear interpolation weights of one full-width sensor between two
  /// coarse rows: value = (1 - w) * coarse[lo] + w * coarse[hi].
  struct Interp {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double w = 0.0;
  };

  // --- fine (residual) level --------------------------------------------

  /// Appends one fine model; local index = insertion order.
  void add_fine(const ImrdmdOptions& options) {
    fine_.push_back(std::make_unique<IncrementalMrdmd>(options));
  }
  std::size_t fine_count() const { return fine_.size(); }
  IncrementalMrdmd& fine(std::size_t local) { return *fine_[local]; }
  const IncrementalMrdmd& fine(std::size_t local) const {
    return *fine_[local];
  }

  // --- coarse (facility) level ------------------------------------------

  /// Enables the coarse level: every `coarse_stride`-th sensor of each
  /// group joins the coarse grid, and the interpolation map back to the
  /// full `sensors`-wide machine order is precomputed (piecewise linear
  /// along each group's sensor list, clamped at the group's tail — groups
  /// never blend into each other). InvalidArgument when `coarse_stride` is
  /// 0 or the groups do not match `sensors`.
  void enable_coarse(const std::vector<std::vector<std::size_t>>& groups,
                     std::size_t sensors, std::size_t coarse_stride,
                     const ImrdmdOptions& options);

  bool hierarchical() const { return coarse_ != nullptr; }
  /// 0 when flat.
  std::size_t coarse_stride() const { return stride_; }
  /// Machine sensor index of each coarse grid row (coarse row order).
  const std::vector<std::size_t>& coarse_rows() const { return rows_; }
  const IncrementalMrdmd& coarse() const;

  /// Folds one chunk into the coarse level: `coarse_chunk` is the chunk's
  /// coarse grid rows (coarse row order), fitted into the coarse model
  /// (initial fit on the first call); `sensors`/`raw_rows` are the machine
  /// indices and raw values of the rows the caller owns, and
  /// `residual_rows` receives each one's raw row minus the interpolated
  /// reconstruction of the chunk's own time window. Returns the
  /// interpolated coarse magnitudes (full sensor width) and fit
  /// diagnostics. Must run on ONE thread per engine replica, before the
  /// fine updates.
  CoarseUpdate update_coarse(const Mat& coarse_chunk, const dmd::ModeBand& band,
                             const std::vector<std::size_t>& sensors,
                             const Mat& raw_rows, Mat& residual_rows);

  /// Elastic growth: extends the coarse level for `new_sensors` (machine
  /// indices, appended to one group by the engine) whose raw history is
  /// `new_rows_history` (|new_sensors| x coarse time_steps). The appended
  /// block's coarse rows (every stride-th of the list) are added at the END
  /// of the grid — the grid is no longer the pure coarse_grid(groups,
  /// stride) function afterwards, which is why checkpoints carry the
  /// explicit grid — and the block's interpolation map is self-contained
  /// (existing sensors keep their frozen map; the block clamps at its own
  /// tail, like a group does).
  /// Returns the new sensors' RESIDUAL history against the grown coarse
  /// model — what a fine model extends with. `new_sensor_total` is the
  /// machine sensor count after the growth.
  Mat grow_coarse(const std::vector<std::size_t>& new_sensors,
                  std::size_t new_sensor_total, const Mat& new_rows_history);

  /// The deterministic coarse grid for (groups, stride): for each group in
  /// order, sensors at positions 0, stride, 2*stride, ... of the group's
  /// list. Pure function.
  static std::vector<std::size_t> coarse_grid(
      const std::vector<std::vector<std::size_t>>& groups,
      std::size_t stride);

 private:
  /// Checkpoint/resume (core/checkpoint.cpp) installs restored models
  /// through this single access point.
  friend struct CheckpointAccess;

  /// Fits `coarse_chunk` into the coarse model and returns the
  /// reconstruction of the chunk's own window.
  Mat fit_coarse(const Mat& coarse_chunk, CoarseUpdate& update);
  /// Interpolation of the sensor at position i of a block (a group, or an
  /// elastic join's appended list) whose `block_rows` coarse rows start at
  /// grid row `first_row`: between the coarse rows of positions
  /// (i / stride) * stride and the next, exact on a coarse sensor and
  /// constant past the block's last coarse row — shared by enable_coarse
  /// and grow_coarse.
  Interp interp_at(std::size_t i, std::size_t first_row,
                   std::size_t block_rows) const;
  /// Residual of one sensor's raw row against the interpolated coarse
  /// reconstruction — shared by update_coarse and grow_coarse.
  void subtract_interpolated(std::size_t sensor, const double* raw,
                             const Mat& recon, double* out,
                             std::size_t cols) const;

  std::size_t stride_ = 0;
  std::vector<std::size_t> rows_;
  std::vector<Interp> interp_;
  std::unique_ptr<IncrementalMrdmd> coarse_;
  std::vector<std::unique_ptr<IncrementalMrdmd>> fine_;
};

}  // namespace imrdmd::core
