// The DMD / mrDMD power spectrum (paper Sec. III-A.2, Eqs. 9-10).
//
// Each retained mode phi_i contributes one spectrum point: its oscillation
// frequency f_i = |Im(ln lambda_i / dt)| / 2 pi, its "power" ||phi_i||_2^2,
// and its growth rate Re(ln lambda_i / dt) (positive = growing dynamics,
// negative = decaying). Figures 5 and 7 of the paper plot amplitude against
// frequency; ModeBand expresses the frequency-range isolation the paper
// applies before z-scoring (e.g. "0-60 Hz"). The points are produced by
// core::MrdmdNode::spectrum, and the band is applied by its reconstruction
// and magnitude functions (core/mrdmd_node.hpp).
#pragma once

#include <cstddef>
#include <limits>

namespace imrdmd::dmd {

struct SpectrumPoint {
  double frequency_hz = 0.0;
  double power = 0.0;
  /// sqrt(power): the "mode amplitude" axis used by the paper's Figs. 5/7.
  double amplitude = 0.0;
  double growth_rate = 0.0;
  /// Index of the mode within its node.
  std::size_t mode_index = 0;
  /// mrDMD level of the node that produced the mode.
  std::size_t level = 0;
};

/// Frequency/power window used to isolate modes of interest.
struct ModeBand {
  double min_frequency_hz = 0.0;
  double max_frequency_hz = std::numeric_limits<double>::infinity();
  double min_power = 0.0;

  bool contains(double frequency_hz, double power) const {
    return frequency_hz >= min_frequency_hz &&
           frequency_hz <= max_frequency_hz && power >= min_power;
  }
};

}  // namespace imrdmd::dmd
