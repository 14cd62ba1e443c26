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
                           double onshore_norm_max) noexcept
    : surge_(surge), kernel_(kernel), ambient_pa_(ambient_pa) {
  const geo::Vec2 translation = kernel.translation_ms();
  const double inputs[] = {surge.wind_setup_scale_m,
                           surge.wind_setup_exponent,
                           surge.wave_setup_per_ms,
                           kernel.surface_factor(),
                           kernel.translation_fraction(),
                           kernel.inflow_cos(),
                           kernel.inflow_sin(),
                           kernel.holland_b(),
                           kernel.rmax_m(),
                           kernel.pressure_deficit_pa(),
                           kernel.cyclostrophic_coeff(),
                           kernel.coriolis_abs(),
                           kernel.vmax_ms(),
                           kernel.central_pressure_pa(),
                           ambient_pa,
                           translation.x,
                           translation.y,
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
  for (std::size_t j = 0; j < kBins; ++j) {
    edge_[j] = lo + static_cast<double>(j) * width;
  }
  lo_ = lo;
  inv_width_ = 1.0 / width;
  cos_a_ = kernel.inflow_cos();
  sin_a_ = kernel.inflow_sin();
  translation_ = translation;
  wave_ = surge.wave_setup_per_ms * kInflate;
  onshore_norm_max_ = onshore_norm_max;
  // Absolute allowances for the kernel's two cancellations, whose rounding
  // error is relative to the operands rather than to the result:
  //  - gradient = sqrt(c + a^2) - a, error <= ~3 ulp of (gradient + a),
  //    with a = r f / 2 at most a_far for any node of this step;
  //  - ambient - (central + dp * decay), error <= ~3 ulp of the operands.
  a_far_ = r_far * kernel.coriolis_abs() / 2.0;
  pressure_allowance_ =
      8.0 * kEps *
      (std::abs(ambient_pa) + std::abs(kernel.central_pressure_pa()) +
       kernel.pressure_deficit_pa());
  enabled_ = true;
}

void StepWseBound::fill(std::size_t j) noexcept {
  const storm::StormStepKernel& k = kernel_;
  const double edge = edge_[j];
  // ratio <= 1 is non-increasing in r; ratio * exp(-ratio) is increasing
  // in ratio on [0, 1], so the cyclostrophic term is non-increasing too.
  const double ratio = std::pow(k.rmax_m() / edge, k.holland_b());
  const double decay = std::exp(-ratio);
  const double cyclostrophic = k.cyclostrophic_coeff() * ratio * decay;
  // sqrt(c + a^2) - a grows with c and shrinks with a = r f / 2.
  const double a = edge * k.coriolis_abs() / 2.0;
  const double gradient = std::max(0.0, std::sqrt(cyclostrophic + a * a) - a);
  const double gradient_hi = gradient + 8.0 * kEps * (gradient + a_far_);
  // The kernel's wind is surface * (cos a t_hat - sin a r_hat) + T *
  // fraction * weight, with 0 <= surface <= S and 0 <= weight <=
  // min(1, g/vmax): each term of v.n is at most its bound times the
  // positive part of its direction factor.
  const double vmax = k.vmax_ms();
  const double weight = vmax > 0.0 ? std::min(1.0, gradient_hi / vmax) : 0.0;
  Bin& bin = bins_[j];
  bin.surface = gradient_hi * k.surface_factor() * kInflate;
  bin.translation_weight = k.translation_fraction() * weight * kInflate;
  const double translation = translation_.norm();
  const double speed =
      (gradient_hi * k.surface_factor() +
       translation * k.translation_fraction() * weight) *
      kInflate;
  bin.setup = surge_.wind_setup_scale_m *
              std::pow(speed, surge_.wind_setup_exponent - 1.0) * kInflate;
  // Pressure deficit dp * (1 - exp(-ratio)) shrinks as ratio falls.
  const double deficit =
      std::max(0.0, ambient_pa_ - (k.central_pressure_pa() +
                                   k.pressure_deficit_pa() * decay)) +
      pressure_allowance_;
  bin.deficit = deficit / (kWaterDensity * kGravity) * kInflate;
  // v.n sums products whose magnitudes reach surface * |n| and
  // |T| * fraction * weight * |n| even when v.n itself is near 0: the
  // kernel's rounding of v and of the dot, and at()'s rounding of the
  // direction factors, are a few ulps of those magnitudes, not of u_on.
  // 16 ulps of them (|n|_1 <= sqrt(2) |n|) covers both with room to spare.
  bin.allowance = 16.0 * kEps * 2.0 * onshore_norm_max_ *
                  (bin.surface * (std::abs(cos_a_) + std::abs(sin_a_)) +
                   bin.translation_weight *
                       (std::abs(translation_.x) + std::abs(translation_.y)));
  filled_ |= 1u << j;
}

}  // namespace ct::surge
