// Exact pruning for the envelope kernel: a per-storm-step table of upper
// bounds on the water-surface elevation a mesh node can reach, as a
// function of its distance to the storm center.
//
// Beyond the radius of maximum winds every Holland term the surge formula
// consumes is non-increasing in r (DESIGN.md §10 has the argument), so for
// each bin edge e_j the table holds A_j and B_j with
//
//   WSE(node at r >= e_j) <= A_j / gdepth + B_j
//
// for every node, whatever its onshore direction. The bounds are inflated
// past the kernel's floating-point rounding, so a node whose bound is at or
// below its running envelope provably cannot raise it and can be skipped
// without changing a bit of the result.
#pragma once

#include <array>
#include <cstddef>
#include <limits>

#include "storm/holland.h"
#include "surge/surge_model.h"

namespace ct::surge {

class StepWseBound {
 public:
  /// Uniform radial bins per storm step.
  static constexpr std::size_t kBins = 16;
  /// Relative inflation of every bound. The kernel's relative rounding
  /// error is a few dozen ulps (~1e-14); this is five orders above it.
  static constexpr double kRelativeSlack = 1e-9;

  /// Builds the table for the step `kernel` samples (ambient pressure
  /// `ambient_pa`). Bins cover [max(Rmax, just above 1 m, r_near), r_far];
  /// the last bin also bounds every r beyond r_far. `onshore_norm_max` is
  /// the largest |onshore direction| over the nodes the bound is used for.
  /// The table is disabled (every bound +inf) when the wind-setup exponent
  /// is below 1, a scale is negative, or an input is non-finite.
  StepWseBound(const SurgeConfig& surge, const storm::StormStepKernel& kernel,
               double ambient_pa, double r_near, double r_far,
               double onshore_norm_max) noexcept;

  /// False when the step cannot be pruned.
  bool enabled() const noexcept { return enabled_; }
  /// Lower edge of bin `j` (< kBins); meaningful only when enabled().
  double edge(std::size_t j) const noexcept { return edge_[j]; }

  /// Upper bound on the WSE of a node at distance `r` (computed as the
  /// kernel does: (point - center).norm()) with g * floored depth
  /// `gdepth` > 0, read from the last bin whose edge is <= r. +inf for
  /// nodes nearer than the first edge.
  double at(double r, double gdepth) const noexcept {
    const double t = (r - lo_) * inv_width_;
    if (!(t >= 0.0)) return std::numeric_limits<double>::infinity();
    std::size_t j = t < static_cast<double>(kBins)
                        ? static_cast<std::size_t>(t)
                        : kBins - 1;
    // (r - lo) * inv_width may round across an edge. Step back until the
    // stored edge really lies at or below r (soundness); step forward once
    // when r already reaches the next edge (tightness).
    if (r < edge_[j]) {
      do {
        if (j == 0) return std::numeric_limits<double>::infinity();
        --j;
      } while (r < edge_[j]);
    } else if (j + 1 < kBins && r >= edge_[j + 1]) {
      ++j;
    }
    return wind_[j] / gdepth + rest_[j];
  }

 private:
  bool enabled_ = false;
  double lo_ = std::numeric_limits<double>::infinity();
  double inv_width_ = 0.0;
  std::array<double, kBins> edge_{};
  std::array<double, kBins> wind_{};  ///< A_j: wind-setup numerator bound
  std::array<double, kBins> rest_{};  ///< B_j: pressure + wave setup bound
};

}  // namespace ct::surge
