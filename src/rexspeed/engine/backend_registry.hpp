#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/engine/scenario.hpp"

namespace rexspeed::engine {

/// One registered solver backend: its mode name (the vocabulary of the
/// scenario `mode=` key and the CLI `--mode=` flag), a one-line
/// description, the panel axes it sweeps (in composite order — what a
/// param=all scenario runs), and a factory building a backend instance
/// for resolved model parameters + the spec's mode configuration
/// (segment limits for the interleaved backend).
struct BackendEntry {
  std::string name;
  std::string description;
  std::vector<sweep::SweepParameter> panel_axes;
  std::function<std::unique_ptr<core::SolverBackend>(
      core::ModelParams, const ScenarioSpec&)>
      factory;
};

/// The backend registry: mode names → backend factories. Adding an
/// evaluation backend is one core::SolverBackend subclass plus one entry
/// here — every engine driver (SweepEngine, CampaignRunner, the shard
/// coordinator and workers, the CLI) resolves backends exclusively through
/// this table.
[[nodiscard]] const std::vector<BackendEntry>& backend_registry();

/// Registry lookup; null when unknown.
[[nodiscard]] const BackendEntry* find_backend(std::string_view mode);

/// Registry lookup; throws std::invalid_argument naming the known modes
/// when unknown.
[[nodiscard]] const BackendEntry& backend_by_name(const std::string& mode);

/// The registry mode name a spec resolves to: "interleaved" when the spec
/// carries a segment configuration, its EvalMode's name otherwise.
[[nodiscard]] std::string backend_mode_name(const ScenarioSpec& spec);

/// Builds the scenario's backend over already-resolved parameters (the
/// batched drivers resolve once and copy per panel). Validates the spec,
/// rejects simulate-only dimensions (verification_recall < 1) with a
/// clear error, then dispatches through the registry. The returned
/// backend may still need prepare(): a caller solving off it directly
/// calls `backend->prepare(sweep::make_parallel_build(pool))` (pool may
/// be null) — the prepared cache is the same bits on any schedule.
[[nodiscard]] std::unique_ptr<core::SolverBackend> make_backend(
    const ScenarioSpec& spec, core::ModelParams params);

/// Convenience overload resolving the spec's parameters itself.
[[nodiscard]] std::unique_ptr<core::SolverBackend> make_backend(
    const ScenarioSpec& spec);

/// The panel axes a scenario's sweeps cover: its single sweep parameter,
/// or — for param=all — every axis its backend advertises. Validates the
/// spec. Throws std::invalid_argument for kSolve scenarios (no panels).
[[nodiscard]] std::vector<sweep::SweepParameter> scenario_panel_axes(
    const ScenarioSpec& spec);

}  // namespace rexspeed::engine
