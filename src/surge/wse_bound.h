// Exact pruning for the envelope kernel: a per-storm-step table of upper
// bounds on the water-surface elevation a mesh node can reach, as a
// function of its distance to the storm center and its onshore direction.
//
// Beyond the radius of maximum winds every Holland term the surge formula
// consumes is non-increasing in r (DESIGN.md §10 has the argument), so each
// bin from edge e_j outward holds a surface-wind bound S_j, a translation
// weight bound W_j and a pressure-setup bound D_j. The wind a node sees is
// surface * (cos a * t_hat - sin a * r_hat) + T * fraction * weight, so its
// onshore component u_on is at most
//
//   S_j * max(0, t_hat.n cos a - r_hat.n sin a)
//     + fraction * W_j * max(0, T.n) + allowance,
//
// and WSE <= (scale * pow(speed_hi_j, e - 1) / gdepth + wave) * u_hi + D_j.
// The bounds are inflated past the kernel's floating-point rounding, so a
// node whose bound is at or below its running envelope provably cannot
// raise it and can be skipped without changing a bit of the result.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "geo/vec2.h"
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
  static constexpr double kInflate = 1.0 + kRelativeSlack;

  /// Builds the bin edges for the step `kernel` samples (ambient pressure
  /// `ambient_pa`); a bin's coefficients are filled on its first read.
  /// Bins cover [max(Rmax, just above 1 m, r_near), r_far]; the last bin
  /// also bounds every r beyond r_far. `onshore_norm_max` is the largest
  /// |onshore direction| over the nodes the bound is used for. The table
  /// is disabled (every bound +inf) when the wind-setup exponent is below
  /// 1, a scale is negative, or an input is non-finite. `surge` and
  /// `kernel` must outlive the bound.
  StepWseBound(const SurgeConfig& surge, const storm::StormStepKernel& kernel,
               double ambient_pa, double r_near, double r_far,
               double onshore_norm_max) noexcept;

  /// False when the step cannot be pruned.
  bool enabled() const noexcept { return enabled_; }
  /// Lower edge of bin `j` (< kBins); meaningful only when enabled().
  double edge(std::size_t j) const noexcept { return edge_[j]; }

  /// Upper bound on the WSE of a node at `radial` = point - center (as the
  /// kernel computes it) with g * floored depth `gdepth` > 0 and onshore
  /// direction `onshore`, read from the last bin whose edge is <= the
  /// node's distance. +inf for nodes nearer than the first edge.
  double at(geo::Vec2 radial, double gdepth, geo::Vec2 onshore) noexcept {
    const double r = radial.norm();
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
    if ((filled_ & (1u << j)) == 0) fill(j);
    const Bin& bin = bins_[j];
    // The same r_hat the kernel rotates; t_hat.n = r_hat x n.
    const geo::Vec2 r_hat = radial / r;
    const double rotating =
        cos_a_ * r_hat.cross(onshore) - sin_a_ * r_hat.dot(onshore);
    const double u_hi =
        (bin.surface * std::max(0.0, rotating) +
         bin.translation_weight * std::max(0.0, translation_.dot(onshore))) *
            kInflate +
        bin.allowance;
    return (bin.setup / gdepth + wave_) * u_hi + bin.deficit;
  }

 private:
  /// Coefficients of one bin, valid for every node at r >= its edge.
  struct Bin {
    double surface = 0.0;             ///< S_j: surface-wind speed bound
    double translation_weight = 0.0;  ///< fraction * W_j
    double setup = 0.0;    ///< scale * pow(speed_hi_j, exponent - 1)
    double deficit = 0.0;  ///< D_j: pressure setup bound (m)
    double allowance = 0.0;  ///< absolute rounding allowance on u_on
  };

  /// Computes bin j's coefficients; a pure function of (step, j), so
  /// which bins a step reads cannot change any bound.
  void fill(std::size_t j) noexcept;

  const SurgeConfig& surge_;
  const storm::StormStepKernel& kernel_;
  double ambient_pa_ = 0.0;
  bool enabled_ = false;
  double lo_ = std::numeric_limits<double>::infinity();
  double inv_width_ = 0.0;
  double cos_a_ = 0.0;
  double sin_a_ = 0.0;
  geo::Vec2 translation_;
  double wave_ = 0.0;  ///< wave setup per m/s, inflated
  double onshore_norm_max_ = 0.0;
  /// Absolute allowances for the kernel's cancellations (see fill()).
  double a_far_ = 0.0;
  double pressure_allowance_ = 0.0;
  std::uint32_t filled_ = 0;  ///< bit j set once bins_[j] is filled
  std::array<double, kBins> edge_{};
  std::array<Bin, kBins> bins_{};
};

}  // namespace ct::surge
