#include "surge/wse_bound.h"

#include <algorithm>
#include <cmath>

namespace ct::surge {

namespace {
constexpr double kEps = std::numeric_limits<double>::epsilon();
}  // namespace

StepWseBound::StepWseBound(const SurgeConfig& surge,
                           const storm::StormStepKernel& kernel,
                           double ambient_pa, double r_near, double r_far,
                           double onshore_norm_max) noexcept {
  const double translation = kernel.translation_ms().norm();
  const double inputs[] = {surge.wind_setup_scale_m,
                           surge.wind_setup_exponent,
                           surge.wave_setup_per_ms,
                           kernel.surface_factor(),
                           kernel.translation_fraction(),
                           kernel.holland_b(),
                           kernel.rmax_m(),
                           kernel.pressure_deficit_pa(),
                           kernel.cyclostrophic_coeff(),
                           kernel.coriolis_abs(),
                           kernel.vmax_ms(),
                           kernel.central_pressure_pa(),
                           ambient_pa,
                           translation,
                           r_near,
                           r_far,
                           onshore_norm_max};
  for (const double x : inputs) {
    if (!std::isfinite(x)) return;
  }
  // pow(|v|, exponent - 1) must be non-decreasing in |v|, and every scale
  // must keep each term's sign.
  if (surge.wind_setup_exponent < 1.0) return;
  const double scales[] = {surge.wind_setup_scale_m, surge.wave_setup_per_ms,
                           kernel.surface_factor(),
                           kernel.translation_fraction(), kernel.holland_b(),
                           kernel.rmax_m()};
  for (const double x : scales) {
    if (x < 0.0) return;
  }

  // Beyond Rmax the Holland terms decay monotonically; at or below 1 m the
  // kernel takes the calm-eye branch, which the bound does not model.
  const double lo = std::max({kernel.rmax_m(),
                              std::nextafter(1.0, 2.0), r_near});
  if (!(r_far > lo)) return;
  const double width = (r_far - lo) / static_cast<double>(kBins);

  const double rmax = kernel.rmax_m();
  const double b = kernel.holland_b();
  const double bdp = kernel.cyclostrophic_coeff();
  const double f = kernel.coriolis_abs();
  const double dp = kernel.pressure_deficit_pa();
  const double central = kernel.central_pressure_pa();
  const double vmax = kernel.vmax_ms();
  const double exponent_m1 = surge.wind_setup_exponent - 1.0;
  const double rho_g = kWaterDensity * kGravity;
  const double inflate = 1.0 + kRelativeSlack;
  // Absolute allowances for the kernel's two cancellations, whose rounding
  // error is relative to the operands rather than to the result:
  //  - gradient = sqrt(c + a^2) - a, error <= ~3 ulp of (gradient + a),
  //    with a = r f / 2 at most a_far for any node of this step;
  //  - ambient - (central + dp * decay), error <= ~3 ulp of the operands.
  const double a_far = r_far * f / 2.0;
  const double pressure_allowance =
      8.0 * kEps * (std::abs(ambient_pa) + std::abs(central) + dp);

  for (std::size_t j = 0; j < kBins; ++j) {
    const double edge = lo + static_cast<double>(j) * width;
    // ratio <= 1 is non-increasing in r; ratio * exp(-ratio) is increasing
    // in ratio on [0, 1], so the cyclostrophic term is non-increasing too.
    const double ratio = std::pow(rmax / edge, b);
    const double decay = std::exp(-ratio);
    const double cyclostrophic = bdp * ratio * decay;
    // sqrt(c + a^2) - a grows with c and shrinks with a = r f / 2.
    const double a = edge * f / 2.0;
    const double gradient =
        std::max(0.0, std::sqrt(cyclostrophic + a * a) - a);
    const double gradient_hi = gradient + 8.0 * kEps * (gradient + a_far);
    // |v| <= surface wind + |T| * fraction * weight, weight <= min(1, g/vmax);
    // the onshore component is at most |v| * |onshore|.
    const double weight = vmax > 0.0 ? std::min(1.0, gradient_hi / vmax) : 0.0;
    const double speed =
        (gradient_hi * kernel.surface_factor() +
         translation * kernel.translation_fraction() * weight) *
        inflate;
    const double onshore = speed * onshore_norm_max;
    // Pressure deficit dp * (1 - exp(-ratio)) shrinks as ratio falls.
    const double deficit =
        std::max(0.0, ambient_pa - (central + dp * decay)) + pressure_allowance;

    edge_[j] = edge;
    wind_[j] =
        surge.wind_setup_scale_m * onshore * std::pow(speed, exponent_m1) *
        inflate;
    rest_[j] = (deficit / rho_g + surge.wave_setup_per_ms * onshore) * inflate;
  }
  lo_ = lo;
  inv_width_ = 1.0 / width;
  enabled_ = true;
}

}  // namespace ct::surge
