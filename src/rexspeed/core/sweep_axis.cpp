#include "rexspeed/core/sweep_axis.hpp"

namespace rexspeed::core {

const char* to_string(SweepAxis axis) noexcept {
  switch (axis) {
    case SweepAxis::kCheckpointTime:
      return "C";
    case SweepAxis::kVerificationTime:
      return "V";
    case SweepAxis::kErrorRate:
      return "lambda";
    case SweepAxis::kPerformanceBound:
      return "rho";
    case SweepAxis::kIdlePower:
      return "Pidle";
    case SweepAxis::kIoPower:
      return "Pio";
    case SweepAxis::kSegments:
      return "segments";
  }
  return "unknown";
}

std::optional<SweepAxis> parse_sweep_axis(std::string_view name) noexcept {
  constexpr SweepAxis kAxes[] = {
      SweepAxis::kCheckpointTime, SweepAxis::kVerificationTime,
      SweepAxis::kErrorRate,      SweepAxis::kPerformanceBound,
      SweepAxis::kIdlePower,      SweepAxis::kIoPower,
      SweepAxis::kSegments};
  for (const SweepAxis axis : kAxes) {
    if (name == to_string(axis)) return axis;
  }
  return std::nullopt;
}

ModelParams apply_parameter(const ModelParams& base, SweepAxis axis,
                            double value) {
  ModelParams params = base;
  switch (axis) {
    case SweepAxis::kCheckpointTime:
      params.checkpoint_s = value;
      // The paper keeps R = C while sweeping the checkpoint cost (§4.1
      // fixes R to the checkpointing time).
      params.recovery_s = value;
      break;
    case SweepAxis::kVerificationTime:
      params.verification_s = value;
      break;
    case SweepAxis::kErrorRate:
      params.lambda_silent = value;
      break;
    case SweepAxis::kIdlePower:
      params.idle_power_mw = value;
      break;
    case SweepAxis::kIoPower:
      params.io_power_mw = value;
      break;
    case SweepAxis::kPerformanceBound:
    case SweepAxis::kSegments:
      break;  // handled by the solver call, params untouched
  }
  return params;
}

}  // namespace rexspeed::core
