#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "rexspeed/core/sweep_axis.hpp"
#include "rexspeed/sweep/thread_pool.hpp"

namespace rexspeed::sweep {

/// The sweep layer's historical name for the axis enum, now shared with
/// core so solver backends can advertise the axes they support
/// (core::BackendCapabilities::axes) without depending on this layer.
using SweepParameter = core::SweepAxis;
using core::apply_parameter;
using core::to_string;

/// Inverse of to_string: parses a sweep-parameter name ("C", "V",
/// "lambda", "rho", "Pidle", "Pio", "segments"). Returns nullopt for
/// anything else.
[[nodiscard]] std::optional<SweepParameter> parse_sweep_parameter(
    std::string_view name) noexcept;

/// Sweep options; defaults reproduce the paper's setup (§4.1: ρ = 3, Pio =
/// dynamic power at the lowest speed). Grids are explicit (default_grid,
/// panel_grid) and the evaluation mode is the backend's.
struct SweepOptions {
  double rho = 3.0;
  /// When the bound is unachievable at some x, report the minimum-ρ
  /// best-effort policy instead of an empty point (matches the paper's
  /// figures, which plot the max-speed solution beyond the feasibility
  /// horizon of the λ and ρ sweeps).
  bool min_rho_fallback = true;
  /// Optional pool; null runs serially.
  ThreadPool* pool = nullptr;
};

/// Default grid for a parameter, matching the paper's axis ranges:
/// C, V, Pidle, Pio ∈ [0, 5000]; ρ ∈ [1, 3.5]; λ ∈ [1e-6, 1e-2]
/// geometrically spaced; segments = the integer grid 1..points.
[[nodiscard]] std::vector<double> default_grid(SweepParameter parameter,
                                               std::size_t points);

/// The six panel parameters of a Figure 8–14 composite, in figure order
/// (C, V, λ, ρ, Pidle, Pio). This is the panel list every pair backend
/// advertises (capabilities().axes); batched drivers can flatten it
/// themselves.
[[nodiscard]] const std::vector<SweepParameter>& all_sweep_parameters();

}  // namespace rexspeed::sweep
