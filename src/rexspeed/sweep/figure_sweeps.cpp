#include "rexspeed/sweep/figure_sweeps.hpp"

#include <stdexcept>

#include "rexspeed/sweep/grid.hpp"

namespace rexspeed::sweep {

std::optional<SweepParameter> parse_sweep_parameter(
    std::string_view name) noexcept {
  return core::parse_sweep_axis(name);
}

std::vector<double> default_grid(SweepParameter parameter,
                                 std::size_t points) {
  switch (parameter) {
    case SweepParameter::kCheckpointTime:
    case SweepParameter::kVerificationTime:
    case SweepParameter::kIdlePower:
    case SweepParameter::kIoPower:
      return linspace(0.0, 5000.0, points);
    case SweepParameter::kPerformanceBound:
      return linspace(1.0, 3.5, points);
    case SweepParameter::kErrorRate:
      return logspace(1e-6, 1e-2, points);
    case SweepParameter::kSegments: {
      // Integer segment counts 1..points (interleaved panels pass their
      // max_segments as the point count).
      std::vector<double> grid;
      grid.reserve(points);
      for (std::size_t m = 1; m <= points; ++m) {
        grid.push_back(static_cast<double>(m));
      }
      return grid;
    }
  }
  throw std::invalid_argument("default_grid: unknown parameter");
}

const std::vector<SweepParameter>& all_sweep_parameters() {
  static const std::vector<SweepParameter> kParameters = {
      SweepParameter::kCheckpointTime, SweepParameter::kVerificationTime,
      SweepParameter::kErrorRate,      SweepParameter::kPerformanceBound,
      SweepParameter::kIdlePower,      SweepParameter::kIoPower};
  return kParameters;
}

}  // namespace rexspeed::sweep
