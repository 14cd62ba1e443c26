// Holland (1980) parametric hurricane wind and pressure model, the standard
// analytic vortex used to drive surge models (ADCIRC itself is typically
// forced with exactly this family of wind fields).
#pragma once

#include <algorithm>
#include <cmath>

#include "geo/vec2.h"

namespace ct::storm {

/// Instantaneous storm parameters (one snapshot along a track).
struct VortexParams {
  double central_pressure_pa = 97000.0;  ///< Minimum sea-level pressure.
  double ambient_pressure_pa = 101000.0; ///< Environmental pressure.
  double rmax_m = 40000.0;               ///< Radius of maximum winds.
  double holland_b = 1.3;                ///< Holland shape parameter (1..2.5).
  double latitude_deg = 21.0;            ///< For the Coriolis parameter.
};

/// Wind sampled at a point: speed plus direction as a unit vector in the
/// local ENU frame (x east, y north).
struct WindSample {
  geo::Vec2 velocity_ms;  ///< 10-m wind vector.
  double speed_ms = 0.0;
  double pressure_pa = 0.0;  ///< Sea-level pressure at the point.
};

/// Coriolis parameter f = 2 Omega sin(lat), 1/s.
double coriolis_parameter(double latitude_deg) noexcept;

/// Holland gradient wind speed at distance r from the center (m/s).
/// V(r) = sqrt( (B dp / rho) (Rmax/r)^B exp(-(Rmax/r)^B) + (r f / 2)^2 )
///        - r f / 2
double holland_gradient_wind(const VortexParams& p, double r_m) noexcept;

/// Holland surface pressure profile at distance r (Pa):
/// p(r) = pc + dp * exp(-(Rmax/r)^B)
double holland_pressure(const VortexParams& p, double r_m) noexcept;

/// Options of the surface wind field model.
struct WindFieldOptions {
  double surface_wind_factor = 0.9;   ///< gradient -> 10m reduction
  double inflow_angle_deg = 20.0;     ///< cross-isobar inflow
  double translation_fraction = 0.5;  ///< asymmetry weight
};

/// Full surface wind field model: gradient wind rotated counter-clockwise
/// (northern hemisphere), reduced to 10-m level, turned inward by the
/// boundary-layer inflow angle, plus forward-motion asymmetry (a fraction
/// of the translation velocity added, strongest right of track).
class HollandWindField {
 public:
  using Options = WindFieldOptions;

  explicit HollandWindField(Options opts = {}) noexcept : opts_(opts) {}

  /// Wind and pressure at `point` for a storm centered at `center` moving
  /// with `translation_ms` (ENU meters; all three in the same frame).
  WindSample sample(const VortexParams& params, geo::Vec2 center,
                    geo::Vec2 translation_ms, geo::Vec2 point) const noexcept;

  const Options& options() const noexcept { return opts_; }

 private:
  Options opts_;
};

/// Per-time-step evaluator: freezes one (params, center, translation)
/// snapshot and hoists everything constant across sample points out of the
/// per-node loop (pressure deficit, Coriolis magnitude, inflow-angle
/// sin/cos, the eyewall wind used for the asymmetry weight). Sampling is
/// arithmetically identical to HollandWindField::sample — the per-node
/// operation sequence on varying inputs is unchanged, so results are
/// bit-equal — but costs one pow/exp and no trig per node instead of
/// several of each.
///
/// `sample` is defined inline below so the surge envelope loop (another
/// library) can inline it; the constructor runs once per time step and
/// stays out of line.
class StormStepKernel {
 public:
  StormStepKernel(const WindFieldOptions& opts, const VortexParams& params,
                  geo::Vec2 center, geo::Vec2 translation_ms) noexcept;

  /// Wind and pressure at `point`; bit-equal to
  /// HollandWindField{opts}.sample(params, center, translation_ms, point).
  WindSample sample(geo::Vec2 point) const noexcept;

  /// Eyewall gradient wind V(Rmax) for this snapshot (m/s).
  double vmax_ms() const noexcept { return vmax_; }

  geo::Vec2 translation_ms() const noexcept { return translation_ms_; }
  double central_pressure_pa() const noexcept { return central_pressure_pa_; }
  double rmax_m() const noexcept { return rmax_m_; }
  double holland_b() const noexcept { return holland_b_; }
  /// Pressure deficit max(0, ambient - central) (Pa).
  double pressure_deficit_pa() const noexcept { return dp_; }
  /// B * dp / rho_air, the cyclostrophic coefficient.
  double cyclostrophic_coeff() const noexcept { return bdp_; }
  /// |Coriolis parameter| (1/s).
  double coriolis_abs() const noexcept { return f_; }
  /// cos and sin of the inflow angle that turns the wind toward the center.
  double inflow_cos() const noexcept { return cos_a_; }
  double inflow_sin() const noexcept { return sin_a_; }
  double surface_factor() const noexcept { return surface_factor_; }
  double translation_fraction() const noexcept { return translation_fraction_; }

 private:
  geo::Vec2 center_;
  geo::Vec2 translation_ms_;
  double central_pressure_pa_;
  double rmax_m_;
  double holland_b_;
  double dp_;            // max(0, ambient - central)
  double bdp_;           // B * dp / rho_air
  double f_;             // |Coriolis parameter|
  double cos_a_, sin_a_; // inflow angle
  double vmax_;          // V(Rmax)
  double surface_factor_;
  double translation_fraction_;
};

inline WindSample StormStepKernel::sample(geo::Vec2 point) const noexcept {
  const geo::Vec2 radial = point - center_;
  const double r = radial.norm();
  WindSample out;
  if (r <= 1.0) {
    // Calm eye: holland_pressure returns the central pressure and the
    // legacy sampler zeroes the wind.
    out.pressure_pa = central_pressure_pa_;
    out.velocity_ms = {};
    out.speed_ms = 0.0;
    return out;
  }

  // ratio and exp(-ratio) feed both the pressure profile and the gradient
  // wind; the legacy path evaluates them once per formula with identical
  // arguments, so sharing the results is bit-preserving.
  const double ratio = std::pow(rmax_m_ / r, holland_b_);
  const double decay = std::exp(-ratio);
  out.pressure_pa = central_pressure_pa_ + dp_ * decay;

  const double cyclostrophic = bdp_ * ratio * decay;
  const double rf2 = r * f_ / 2.0;
  const double gradient = std::sqrt(cyclostrophic + rf2 * rf2) - rf2;
  const double surface = gradient * surface_factor_;

  const geo::Vec2 radial_hat = radial / r;
  const geo::Vec2 tangential_hat = radial_hat.perp();
  geo::Vec2 v = tangential_hat * (surface * cos_a_) -
                radial_hat * (surface * sin_a_);

  const double weight =
      vmax_ > 0.0 ? std::clamp(gradient / vmax_, 0.0, 1.0) : 0.0;
  v += translation_ms_ * (translation_fraction_ * weight);

  out.velocity_ms = v;
  out.speed_ms = v.norm();
  return out;
}

}  // namespace ct::storm
