#pragma once

#include "rexspeed/sim/rng.hpp"

namespace rexspeed::sim {

/// Inter-arrival distribution of errors. The paper assumes exponential
/// arrivals (§2.1); Weibull with shape < 1 models the infant-mortality
/// clustering observed on real machines; `tests/integration/
/// test_model_vs_simulation.cpp` runs the exponential-optimal policy under
/// it to show how much clustered errors raise the overheads.
enum class ArrivalKind {
  kExponential,
  kWeibull,
};

/// Exponential inter-arrival sampler with rate λ (mean 1/λ).
class Exponential {
 public:
  explicit Exponential(double rate);
  /// Next inter-arrival time (s). Returns +inf when the rate is zero.
  [[nodiscard]] double sample(Xoshiro256& rng) const noexcept;
  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] double mean() const noexcept;

 private:
  double rate_;
};

/// Weibull inter-arrival sampler parameterized by shape k and *mean* —
/// the scale is derived so different shapes stay comparable at equal MTBF.
class Weibull {
 public:
  Weibull(double shape, double mean);
  [[nodiscard]] double sample(Xoshiro256& rng) const noexcept;
  [[nodiscard]] double shape() const noexcept { return shape_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

 private:
  double shape_;
  double scale_;
  double mean_;
};

/// lgamma-based Γ(1 + 1/k), used to convert a Weibull mean to its scale.
[[nodiscard]] double weibull_mean_to_scale(double shape, double mean);

/// Polymorphic-by-value arrival sampler used by the fault injector.
class ArrivalSampler {
 public:
  /// Exponential with the given rate (the paper's model).
  static ArrivalSampler exponential(double rate);
  /// Weibull with the given shape, matched to mean 1/rate. Falls back to an
  /// infinite arrival when rate is zero.
  static ArrivalSampler weibull(double shape, double rate);

  /// Next inter-arrival time (s); +inf when the source is disabled.
  [[nodiscard]] double sample(Xoshiro256& rng) const noexcept;

  [[nodiscard]] ArrivalKind kind() const noexcept { return kind_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  ArrivalKind kind_ = ArrivalKind::kExponential;
  double rate_ = 0.0;
  double shape_ = 1.0;
  double scale_ = 0.0;
};

}  // namespace rexspeed::sim
