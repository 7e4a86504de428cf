#pragma once

#include <optional>
#include <string_view>

#include "rexspeed/core/model_params.hpp"

namespace rexspeed::core {

/// The sweepable model dimensions: the six parameters the paper sweeps in
/// Figures 2–14 plus the segment count of the interleaved-verification
/// extension. This lives in core (not sweep) so a SolverBackend can
/// advertise which axes it supports without depending on the sweep layer;
/// sweep::SweepParameter is an alias of this type.
enum class SweepAxis {
  kCheckpointTime,   ///< C (s)          — Figs. 2, 8–14 row 1
  kVerificationTime, ///< V (s)          — Figs. 3, 8–14 row 2
  kErrorRate,        ///< λ (1/s), log   — Figs. 4, 8–14 row 3
  kPerformanceBound, ///< ρ              — Figs. 5, 8–14 row 4
  kIdlePower,        ///< Pidle (mW)     — Figs. 6, 8–14 row 5
  kIoPower,          ///< Pio (mW)       — Figs. 7, 8–14 row 6
  kSegments,         ///< verifications per pattern m — interleaved
                     ///< backends only (pair backends reject the axis)
};

[[nodiscard]] const char* to_string(SweepAxis axis) noexcept;

/// Inverse of to_string: parses an axis name ("C", "V", "lambda", "rho",
/// "Pidle", "Pio", "segments"). Returns nullopt for anything else.
[[nodiscard]] std::optional<SweepAxis> parse_sweep_axis(
    std::string_view name) noexcept;

/// Applies one swept value to a parameter bundle (returns a copy). The ρ
/// and segments axes leave the params untouched (the value goes to the
/// solver call); sweeping C keeps R = C (paper §4.1).
[[nodiscard]] ModelParams apply_parameter(const ModelParams& base,
                                          SweepAxis axis, double value);

}  // namespace rexspeed::core
