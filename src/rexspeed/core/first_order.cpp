#include "rexspeed/core/first_order.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rexspeed::core {

double OverheadExpansion::argmin() const {
  if (!has_interior_minimum()) {
    throw std::logic_error(
        "OverheadExpansion: no interior minimum (y or z not positive)");
  }
  return std::sqrt(z / y);
}

double OverheadExpansion::min_value() const {
  if (!has_interior_minimum()) {
    throw std::logic_error(
        "OverheadExpansion: no interior minimum (y or z not positive)");
  }
  return x + 2.0 * std::sqrt(y * z);
}

namespace {

void check_speeds(double sigma1, double sigma2) {
  if (!(sigma1 > 0.0) || !(sigma2 > 0.0)) {
    throw std::invalid_argument("expansion: speeds must be positive");
  }
}

}  // namespace

namespace detail {

OverheadExpansion time_expansion_unchecked(const ModelParams& params,
                                           double sigma1, double sigma2) {
  const double lam = params.total_error_rate();
  const double lf = params.lambda_failstop;
  const double r = params.recovery_s;
  const double v = params.verification_s;
  OverheadExpansion exp{};
  exp.x = (1.0 + lam * (r + v / sigma2) - lf * v / sigma1) / sigma1;
  exp.y = lam / (sigma1 * sigma2) - lf / (2.0 * sigma1 * sigma1);
  exp.z = params.checkpoint_s + v / sigma1;
  return exp;
}

OverheadExpansion energy_expansion_unchecked(const ModelParams& params,
                                             double sigma1, double sigma2) {
  const double lam = params.total_error_rate();
  const double lf = params.lambda_failstop;
  const double r = params.recovery_s;
  const double v = params.verification_s;
  const double pc1 = params.compute_power(sigma1);
  const double pc2 = params.compute_power(sigma2);
  const double pio = params.io_total_power();
  OverheadExpansion exp{};
  exp.x = pc1 / sigma1 + lam * (r * pio + v * pc2 / sigma2) / sigma1 -
          lf * v * pc1 / (sigma1 * sigma1);
  exp.y = lam * pc2 / (sigma1 * sigma2) - lf * pc1 / (2.0 * sigma1 * sigma1);
  exp.z = params.checkpoint_s * pio + v * pc1 / sigma1;
  return exp;
}

}  // namespace detail

OverheadExpansion time_expansion(const ModelParams& params, double sigma1,
                                 double sigma2) {
  params.validate();
  check_speeds(sigma1, sigma2);
  return detail::time_expansion_unchecked(params, sigma1, sigma2);
}

OverheadExpansion energy_expansion(const ModelParams& params, double sigma1,
                                   double sigma2) {
  params.validate();
  check_speeds(sigma1, sigma2);
  return detail::energy_expansion_unchecked(params, sigma1, sigma2);
}

bool first_order_valid(const ModelParams& params, double sigma1,
                       double sigma2) {
  return time_expansion(params, sigma1, sigma2).y > 0.0 &&
         energy_expansion(params, sigma1, sigma2).y > 0.0;
}

double max_valid_speed_ratio(const ModelParams& params) {
  const double lf = params.lambda_failstop;
  if (!(lf > 0.0)) return std::numeric_limits<double>::infinity();
  return 2.0 * params.total_error_rate() / lf;
}

}  // namespace rexspeed::core
