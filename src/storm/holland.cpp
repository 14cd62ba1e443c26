#include "storm/holland.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace ct::storm {

namespace {
constexpr double kAirDensity = 1.15;       // kg/m^3
constexpr double kEarthOmega = 7.2921e-5;  // rad/s
}  // namespace

double coriolis_parameter(double latitude_deg) noexcept {
  return 2.0 * kEarthOmega *
         std::sin(latitude_deg * std::numbers::pi / 180.0);
}

double holland_gradient_wind(const VortexParams& p, double r_m) noexcept {
  if (r_m <= 1.0) return 0.0;  // calm eye center
  const double dp = std::max(0.0, p.ambient_pressure_pa - p.central_pressure_pa);
  const double ratio = std::pow(p.rmax_m / r_m, p.holland_b);
  const double cyclostrophic =
      (p.holland_b * dp / kAirDensity) * ratio * std::exp(-ratio);
  const double f = std::abs(coriolis_parameter(p.latitude_deg));
  const double rf2 = r_m * f / 2.0;
  return std::sqrt(cyclostrophic + rf2 * rf2) - rf2;
}

double holland_pressure(const VortexParams& p, double r_m) noexcept {
  const double dp = std::max(0.0, p.ambient_pressure_pa - p.central_pressure_pa);
  if (r_m <= 1.0) return p.central_pressure_pa;
  const double ratio = std::pow(p.rmax_m / r_m, p.holland_b);
  return p.central_pressure_pa + dp * std::exp(-ratio);
}

WindSample HollandWindField::sample(const VortexParams& params,
                                    geo::Vec2 center, geo::Vec2 translation_ms,
                                    geo::Vec2 point) const noexcept {
  const geo::Vec2 radial = point - center;
  const double r = radial.norm();
  WindSample out;
  out.pressure_pa = holland_pressure(params, r);
  if (r <= 1.0) {
    out.velocity_ms = {};
    out.speed_ms = 0.0;
    return out;
  }

  const double gradient = holland_gradient_wind(params, r);
  const double surface = gradient * opts_.surface_wind_factor;

  // Tangential direction: counter-clockwise rotation (northern hemisphere)
  // is +90 degrees from the outward radial.
  const geo::Vec2 radial_hat = radial / r;
  const geo::Vec2 tangential_hat = radial_hat.perp();

  // Rotate the tangential wind inward (toward the center) by the inflow
  // angle: v = cos(a) * tangential - sin(a) * radial.
  const double a = opts_.inflow_angle_deg * std::numbers::pi / 180.0;
  geo::Vec2 v = tangential_hat * (surface * std::cos(a)) -
                radial_hat * (surface * std::sin(a));

  // Forward-motion asymmetry, scaled by the local relative intensity so the
  // correction vanishes far from the storm.
  const double vmax = holland_gradient_wind(params, params.rmax_m);
  const double weight = vmax > 0.0 ? std::clamp(gradient / vmax, 0.0, 1.0) : 0.0;
  v += translation_ms * (opts_.translation_fraction * weight);

  out.velocity_ms = v;
  out.speed_ms = v.norm();
  return out;
}

StormStepKernel::StormStepKernel(const WindFieldOptions& opts,
                                 const VortexParams& params, geo::Vec2 center,
                                 geo::Vec2 translation_ms) noexcept
    : center_(center),
      translation_ms_(translation_ms),
      central_pressure_pa_(params.central_pressure_pa),
      rmax_m_(params.rmax_m),
      holland_b_(params.holland_b),
      dp_(std::max(0.0, params.ambient_pressure_pa - params.central_pressure_pa)),
      bdp_(params.holland_b * dp_ / kAirDensity),
      f_(std::abs(coriolis_parameter(params.latitude_deg))),
      cos_a_(std::cos(opts.inflow_angle_deg * std::numbers::pi / 180.0)),
      sin_a_(std::sin(opts.inflow_angle_deg * std::numbers::pi / 180.0)),
      vmax_(holland_gradient_wind(params, params.rmax_m)),
      surface_factor_(opts.surface_wind_factor),
      translation_fraction_(opts.translation_fraction) {}

}  // namespace ct::storm
