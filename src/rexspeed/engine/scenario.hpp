#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/sim/policy.hpp"
#include "rexspeed/sim/simulator.hpp"
#include "rexspeed/sweep/figure_sweeps.hpp"

namespace rexspeed::engine {

/// One named model-parameter override. Keys use the CLI vocabulary:
/// lambda, lambda_failstop, C, R, V, kappa, Pidle, Pio.
struct ParamOverride {
  std::string key;
  double value = 0.0;
};

/// What running a scenario produces.
enum class ScenarioKind {
  kSolve,      ///< one solve at the scenario's bound
  kSweep,      ///< one figure panel over `sweep_parameter`
  kAllSweeps,  ///< every panel the scenario's backend supports
};

/// A named, parseable description of one workload: which platform
/// configuration to load, which model parameters to override, how to solve
/// (speed policy, solver backend, bound) and what to sweep. Scenarios are
/// data, not code — the CLI, tests and examples all resolve them through
/// the same registry, and new workloads are added by registering a spec,
/// not by writing another driver. The solver itself is resolved through
/// engine::backend_registry() (see backend_registry.hpp), so a scenario
/// never names a solver class — only a mode. (Full key=value reference:
/// see docs/scenario_format.md.)
///
/// Thread-safety: a plain value type — copy freely; concurrent reads of
/// one spec are safe, concurrent mutation is the caller's problem. The
/// backends built for it follow the engine-wide contract: immutable after
/// prepare(), shareable across workers.
struct ScenarioSpec {
  std::string name;
  std::string description;
  /// "Platform/Processor" configuration name, e.g. "Hera/XScale".
  std::string configuration = "Hera/XScale";
  double rho = 3.0;
  std::size_t points = 51;
  core::SpeedPolicy policy = core::SpeedPolicy::kTwoSpeed;
  core::EvalMode mode = core::EvalMode::kFirstOrder;
  bool min_rho_fallback = true;
  /// Set for kSweep scenarios; ignored when `all_panels` is true.
  std::optional<sweep::SweepParameter> sweep_parameter;
  /// True for a Figure 8–14 style composite: every panel axis the
  /// scenario's backend advertises (six for the pair backends, ρ +
  /// segments for the interleaved one).
  bool all_panels = false;
  /// Fixed interleaved segment count m (0 = unset). A positive value runs
  /// the interleaved backend with exactly m verifications per pattern;
  /// m = 1 is the paper's own pattern through the interleaved path.
  unsigned segments = 0;
  /// Best-segment-count search cap M (0 = unset): the interleaved backend
  /// searches m ∈ [1, M]. Mutually exclusive with `segments`.
  unsigned max_segments = 0;
  /// True when `max_segments` holds the m = 1 default implied by
  /// `mode=interleaved` rather than an explicit key — parser bookkeeping
  /// so a later explicit segments=/max_segments= replaces the default
  /// instead of tripping the mutual-exclusion check. Never serialized.
  bool max_segments_defaulted = false;
  /// True when the scenario runs the partial-recall analytical backend
  /// (`mode=recall`): first-order optimization over the recall-scaled
  /// silent-error rate r·λs (core::ClosedFormBackend's recall mode).
  /// Mutually exclusive with the segment keys — the recall backend is a
  /// speed-pair backend.
  bool recall_mode = false;
  /// Probability that a verification detects a silent error
  /// (SimulatorOptions::verification_recall). 1 is the paper's guaranteed
  /// verification. Values below 1 are modeled analytically by the recall
  /// backend (`mode=recall`, see core/recall_solver.hpp) and executed
  /// faithfully by `rexspeed simulate`; every other solver mode requires
  /// full recall, and engine::make_backend rejects partial-recall specs
  /// under them with an error pointing at mode=recall.
  double verification_recall = 1.0;
  /// False opts this scenario out of the persistent result cache
  /// (`cache=0`): its panels and solves are neither looked up nor stored,
  /// whatever `--cache-dir` the run was given. The escape hatch for
  /// workloads whose entries would only churn the store (one-off
  /// parameter probes, deliberately cache-busting timings).
  bool cache = true;
  /// Model-parameter overrides applied on top of the configuration.
  std::vector<ParamOverride> overrides;

  [[nodiscard]] ScenarioKind kind() const noexcept {
    if (all_panels) return ScenarioKind::kAllSweeps;
    return sweep_parameter ? ScenarioKind::kSweep : ScenarioKind::kSolve;
  }

  /// True when the scenario runs the interleaved backend (either
  /// `segments=`, `max_segments=` or `mode=interleaved` was given).
  [[nodiscard]] bool interleaved() const noexcept {
    return segments > 0 || max_segments > 0;
  }

  /// Upper end of the segment counts the solver must cover: the fixed
  /// count, or the search cap (0 for non-interleaved scenarios).
  [[nodiscard]] unsigned segment_limit() const noexcept {
    return segments > 0 ? segments : max_segments;
  }

  /// Cross-field validation beyond what apply_token can check per key:
  /// interleaved scenarios may only sweep rho or segments, the segments
  /// axis requires interleaved mode, and segments/max_segments must not
  /// both be set. Engine entry points call this before planning any task.
  void validate() const;

  /// Configuration lookup + overrides → validated model parameters.
  [[nodiscard]] core::ModelParams resolve_params() const;

  /// Sweep options carrying this scenario's ρ and fallback flag (pool
  /// supplied by the caller — usually a SweepEngine). The grid comes from
  /// sweep::panel_grid and the mode from the backend (make_backend).
  [[nodiscard]] sweep::SweepOptions sweep_options(
      sweep::ThreadPool* pool = nullptr) const;
};

/// Applies one override to a parameter bundle. Throws std::invalid_argument
/// on an unknown key.
void apply_override(core::ModelParams& params, const ParamOverride& override_);

/// Parses one "key=value" token into a spec. Structural keys: name,
/// description, config, rho, points, param (a sweep-parameter name, "all"
/// or "none"), policy (two-speed | single-speed), mode (first-order |
/// exact-eval | exact-opt | interleaved | recall — the backend-registry
/// vocabulary; mode=interleaved defaults max_segments to 1, and an
/// explicit segments=/max_segments= key takes precedence in either
/// order), fallback (0 | 1), segments (≥ 1),
/// max_segments (≥ 1, mutually exclusive with segments) and
/// verification_recall (in [0, 1]; below 1 the solver side needs
/// mode=recall, every mode simulates it). Every other
/// key must be a model-parameter override key (see ParamOverride). Throws
/// std::invalid_argument on an unknown key or malformed value.
void apply_token(ScenarioSpec& spec, const std::string& key,
                 const std::string& value);

/// Parses a whitespace-separated "key=value ..." scenario description,
/// e.g. "config=Atlas/Crusoe param=C points=21 rho=2.5 V=300".
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text);

/// The built-in scenario registry: the paper's Figures 2–14 as data
/// (fig02…fig07 single panels on Atlas/Crusoe, fig08…fig14 six-panel
/// composites over the eight configurations), plus one scenario per
/// non-default solver backend (exact_rho, interleaved_rho,
/// interleaved_segments, recall_rho) so every registered backend has a
/// registered workload.
[[nodiscard]] const std::vector<ScenarioSpec>& scenario_registry();

/// Registry lookup; null when unknown.
[[nodiscard]] const ScenarioSpec* find_scenario(const std::string& name);

/// Registry lookup; throws std::out_of_range when unknown.
[[nodiscard]] const ScenarioSpec& scenario_by_name(const std::string& name);

/// Solves the scenario at its bound through its registry backend — any
/// mode, one entry point. Pair backends apply the spec's speed policy and
/// min-ρ fallback (Solution::used_fallback reports a fallback take); the
/// interleaved backend searches or pins the segment count per the spec.
[[nodiscard]] core::Solution solve_scenario(const ScenarioSpec& spec);

/// SimulatorOptions induced by the scenario — the bridge for simulate-only
/// dimensions (currently verification_recall).
[[nodiscard]] sim::SimulatorOptions simulator_options(
    const ScenarioSpec& spec);

/// The scenario's solution for simulation purposes: non-recall modes are
/// solved with verification_recall stripped to 1 (for them the value
/// shapes only the simulation the policy is fed into — simulator_options
/// — never the solve), while mode=recall keeps it (partial recall IS that
/// backend's model). THE one place that rule lives; make_policy and the
/// CLI's simulate path both route here.
[[nodiscard]] core::Solution solve_for_simulation(const ScenarioSpec& spec);

/// Execution policy induced by the scenario's solution — the bridge into
/// the fault-injection simulator. Interleaved scenarios yield a segmented
/// policy (ExecutionPolicy::segmented) carrying the solved count.
/// Partial recall is accepted under any mode: non-recall policies are
/// solved at full recall (verification_recall reaches their simulator
/// through simulator_options(), never the solve) while mode=recall
/// policies are solved recall-aware. Throws std::runtime_error when
/// the scenario is infeasible at its bound.
[[nodiscard]] sim::ExecutionPolicy make_policy(const ScenarioSpec& spec);

}  // namespace rexspeed::engine
