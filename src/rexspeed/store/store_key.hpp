#pragma once

#include <string>
#include <vector>

#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/sweep/figure_sweeps.hpp"

namespace rexspeed::store {

/// Content-address derivation: a solve result is a deterministic function
/// of (model parameters, backend identity + version tag, solve/panel
/// configuration), so its key is the SHA-256 hex of a canonical
/// little-endian serialization of exactly those inputs — doubles as bit
/// patterns, strings length-prefixed, one layout-version tag leading the
/// stream. Anything that cannot change the output bits (batch mode,
/// thread count, scheduling) is deliberately NOT hashed: the bit-identity
/// contracts make those keys collide on purpose, so a batched campaign
/// hits a pointwise sweep's entries and vice versa. Bumping a backend's
/// capabilities().version invalidates its entries wholesale.
///
/// `recall` is the scenario's verification_recall: the recall backend's
/// params() reports the unscaled bundle, so the recall value must reach
/// the key explicitly (1.0 for every full-recall mode).

/// Key of one panel sweep: the backend (name, version, params, segment
/// configuration), the recorded configuration label, the swept axis, the
/// panel bound and fallback option, and the exact grid. The byte after the
/// fallback flag is always true: it recorded a warm-start-chain switch
/// that no longer exists (chaining backends always chain), and keeping it
/// keeps every key, and so every cache already filled, valid.
[[nodiscard]] std::string panel_key(const core::SolverBackend& backend,
                                    const std::string& configuration,
                                    sweep::SweepParameter axis,
                                    const std::vector<double>& grid,
                                    const sweep::SweepOptions& options,
                                    double recall = 1.0);

/// Key of one standalone solve at bound `rho` under `policy`.
[[nodiscard]] std::string solve_key(const core::SolverBackend& backend,
                                    double rho, core::SpeedPolicy policy,
                                    bool min_rho_fallback,
                                    double recall = 1.0);

/// Coarse cost-table key — one measured seconds-per-point figure per
/// (model params, backend name + version, axis, segment cap). 16-hex
/// FNV-1a: the cost table seeds the campaign's longest-first ordering, so
/// it wants aggregation across grids and bounds, not exact addressing.
[[nodiscard]] std::string cost_key(const core::SolverBackend& backend,
                                   sweep::SweepParameter axis);

}  // namespace rexspeed::store
