#include "rexspeed/engine/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/platform/configuration.hpp"

namespace rexspeed::engine {

core::ModelParams ScenarioSpec::resolve_params() const {
  core::ModelParams params = core::ModelParams::from_configuration(
      platform::configuration_by_name(configuration));
  for (const ParamOverride& override_ : overrides) {
    apply_override(params, override_);
  }
  params.validate();
  return params;
}

void ScenarioSpec::validate() const {
  if (segments > 0 && max_segments > 0) {
    throw std::invalid_argument(
        "scenario '" + name +
        "': segments and max_segments are mutually exclusive (a fixed "
        "count or a search cap, not both)");
  }
  if (!(verification_recall >= 0.0) || verification_recall > 1.0) {
    throw std::invalid_argument(
        "scenario '" + name + "': verification_recall must be in [0, 1]");
  }
  if (recall_mode && interleaved()) {
    throw std::invalid_argument(
        "scenario '" + name +
        "': mode=recall is a speed-pair backend and cannot combine with "
        "segments/max_segments (interleaved verification)");
  }
  if (!interleaved()) {
    if (sweep_parameter == sweep::SweepParameter::kSegments) {
      throw std::invalid_argument(
          "scenario '" + name +
          "': param=segments needs the interleaved solver mode (set "
          "segments= or max_segments=)");
    }
    return;
  }
  if (sweep_parameter &&
      *sweep_parameter != sweep::SweepParameter::kPerformanceBound &&
      *sweep_parameter != sweep::SweepParameter::kSegments) {
    throw std::invalid_argument(
        "scenario '" + name + "': interleaved scenarios sweep rho or "
        "segments, not '" +
        std::string(sweep::to_string(*sweep_parameter)) + "'");
  }
}

sweep::SweepOptions ScenarioSpec::sweep_options(
    sweep::ThreadPool* pool) const {
  sweep::SweepOptions options;
  options.rho = rho;
  options.min_rho_fallback = min_rho_fallback;
  options.pool = pool;
  return options;
}

void apply_override(core::ModelParams& params,
                    const ParamOverride& override_) {
  const std::string& key = override_.key;
  const double value = override_.value;
  if (key == "lambda") {
    params.lambda_silent = value;
  } else if (key == "lambda_failstop") {
    params.lambda_failstop = value;
  } else if (key == "C") {
    params.checkpoint_s = value;
  } else if (key == "R") {
    params.recovery_s = value;
  } else if (key == "V") {
    params.verification_s = value;
  } else if (key == "kappa") {
    params.kappa_mw = value;
  } else if (key == "Pidle") {
    params.idle_power_mw = value;
  } else if (key == "Pio") {
    params.io_power_mw = value;
  } else {
    throw std::invalid_argument(
        "apply_override: unknown model parameter '" + key + "'");
  }
}

namespace {

double parse_double(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double parsed = 0.0;
  bool out_of_range = false;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::out_of_range&) {
    // "lambda=1e999": syntactically a number, but not representable — a
    // distinct diagnostic, not "malformed", and never an uncaught escape.
    out_of_range = true;
    consumed = value.size();
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != value.size() || value.empty()) {
    throw std::invalid_argument("scenario: malformed number '" + value +
                                "' for key '" + key + "'");
  }
  // stod happily parses "inf"/"nan" tokens, and 1e999 overflows; neither
  // is a usable model quantity (points=inf would be cast to size_t — UB —
  // and an inf rate silently deforms every expectation downstream).
  if (out_of_range || !std::isfinite(parsed)) {
    throw std::invalid_argument("scenario: number '" + value + "' for key '" +
                                key + "' is out of range (values must be "
                                "finite; inf/nan are rejected)");
  }
  return parsed;
}

/// Segment counts are small positive integers; anything else (zero,
/// negatives, fractions, absurd caps) is rejected eagerly so the error
/// carries the offending key — and, through load_scenario_file, its
/// file:line.
unsigned parse_segments(const std::string& key, const std::string& value) {
  constexpr double kMaxSegments = 256.0;
  const double parsed = parse_double(key, value);
  if (!(parsed >= 1.0) || parsed != std::floor(parsed) ||
      parsed > kMaxSegments) {
    throw std::invalid_argument("scenario: " + key +
                                " must be an integer in [1, 256], got '" +
                                value + "'");
  }
  return static_cast<unsigned>(parsed);
}

}  // namespace

void apply_token(ScenarioSpec& spec, const std::string& key,
                 const std::string& value) {
  if (key == "name" || key == "config") {
    // Identifiers are single words: a spec file (which keeps spaces inside
    // values) could otherwise load one that write_scenario cannot write
    // back, and an empty name would come back as the file stem.
    if (value.empty() ||
        value.find_first_of(" \t\r\n") != std::string::npos) {
      throw std::invalid_argument("scenario: " + key +
                                  " must be one non-empty word, got '" +
                                  value + "'");
    }
    (key == "name" ? spec.name : spec.configuration) = value;
  } else if (key == "description") {
    spec.description = value;
  } else if (key == "rho") {
    const double rho = parse_double(key, value);
    // Validate eagerly: an unchecked bound would first throw inside a
    // ThreadPool worker (which terminates) instead of at parse time.
    if (!(rho > 0.0) || !std::isfinite(rho)) {
      throw std::invalid_argument("scenario: rho must be positive and "
                                  "finite, got '" + value + "'");
    }
    spec.rho = rho;
  } else if (key == "points") {
    const double points = parse_double(key, value);
    // 2^53 bounds the cast to size_t (a larger double would overflow it)
    // and keeps every count exact in a double.
    if (!(points >= 1.0) || points > 9007199254740992.0) {
      throw std::invalid_argument("scenario: points must be in [1, 2^53]");
    }
    spec.points = static_cast<std::size_t>(points);
  } else if (key == "param") {
    if (value == "all") {
      spec.all_panels = true;
      spec.sweep_parameter.reset();
    } else if (value == "none") {
      spec.all_panels = false;
      spec.sweep_parameter.reset();
    } else if (const auto parameter = sweep::parse_sweep_parameter(value)) {
      spec.all_panels = false;
      spec.sweep_parameter = *parameter;
    } else {
      throw std::invalid_argument(
          "scenario: unknown sweep parameter '" + value +
          "' (expected C, V, lambda, rho, Pidle, Pio, segments, all or "
          "none)");
    }
  } else if (key == "policy") {
    if (value == "two-speed") {
      spec.policy = core::SpeedPolicy::kTwoSpeed;
    } else if (value == "single-speed") {
      spec.policy = core::SpeedPolicy::kSingleSpeed;
    } else {
      throw std::invalid_argument("scenario: unknown policy '" + value +
                                  "' (expected two-speed or single-speed)");
    }
  } else if (key == "mode") {
    // Like every structural key, a later mode= wins: picking a closed-form
    // or interleaved mode leaves recall mode, and vice versa.
    if (value == "first-order") {
      spec.mode = core::EvalMode::kFirstOrder;
      spec.recall_mode = false;
    } else if (value == "exact-eval") {
      spec.mode = core::EvalMode::kExactEvaluation;
      spec.recall_mode = false;
    } else if (value == "exact-opt") {
      spec.mode = core::EvalMode::kExactOptimize;
      spec.recall_mode = false;
    } else if (value == "interleaved") {
      // The interleaved backend is selected by the segment keys; the mode
      // name alone defaults to the paper's own pattern through the
      // interleaved path (m = 1). An explicit segments=/max_segments= key
      // takes precedence in either order (the default is flagged so a
      // later explicit key replaces it instead of conflicting).
      if (!spec.interleaved()) {
        spec.max_segments = 1;
        spec.max_segments_defaulted = true;
      }
      spec.recall_mode = false;
    } else if (value == "recall") {
      // The partial-recall backend: first-order optimization over the
      // recall-scaled rate. The recall value itself comes from the
      // verification_recall key (default 1, where the backend is
      // bit-identical to first-order).
      spec.recall_mode = true;
      spec.mode = core::EvalMode::kFirstOrder;
    } else {
      throw std::invalid_argument(
          "scenario: unknown mode '" + value +
          "' (expected first-order, exact-eval, exact-opt, interleaved or "
          "recall)");
    }
  } else if (key == "segments") {
    if (spec.max_segments > 0) {
      // A cap the user never wrote (the mode=interleaved default) yields
      // to the explicit key; a user-set cap is a genuine conflict.
      if (!spec.max_segments_defaulted) {
        throw std::invalid_argument(
            "scenario: segments and max_segments are mutually exclusive");
      }
      spec.max_segments = 0;
      spec.max_segments_defaulted = false;
    }
    spec.segments = parse_segments(key, value);
  } else if (key == "max_segments") {
    if (spec.segments > 0) {
      throw std::invalid_argument(
          "scenario: segments and max_segments are mutually exclusive");
    }
    spec.max_segments = parse_segments(key, value);
    spec.max_segments_defaulted = false;
  } else if (key == "verification_recall") {
    const double recall = parse_double(key, value);
    if (!(recall >= 0.0) || recall > 1.0) {
      throw std::invalid_argument(
          "scenario: verification_recall must be in [0, 1], got '" + value +
          "'");
    }
    spec.verification_recall = recall;
  } else if (key == "fallback") {
    if (value == "1" || value == "true") {
      spec.min_rho_fallback = true;
    } else if (value == "0" || value == "false") {
      spec.min_rho_fallback = false;
    } else {
      // Anything-but-0-means-true would turn a typo ("off", "flase") into
      // the opposite policy; reject like every other key does.
      throw std::invalid_argument("scenario: fallback must be 0, 1, true "
                                  "or false, got '" + value + "'");
    }
  } else if (key == "cache") {
    if (value == "1" || value == "true") {
      spec.cache = true;
    } else if (value == "0" || value == "false") {
      spec.cache = false;
    } else {
      throw std::invalid_argument("scenario: cache must be 0, 1, true or "
                                  "false, got '" + value + "'");
    }
  } else {
    // Everything else must be a model-parameter override; validate the
    // key eagerly so typos fail at parse time, not at resolve time.
    ParamOverride override_{key, parse_double(key, value)};
    core::ModelParams probe;
    probe.speeds = {1.0};
    apply_override(probe, override_);
    // A repeated key replaces the earlier entry (last wins, like every
    // structural key) instead of accumulating: the spec then carries one
    // override per key, so write_scenario's output never contains the
    // duplicate lines load_scenario_file rejects.
    const auto existing = std::find_if(
        spec.overrides.begin(), spec.overrides.end(),
        [&](const ParamOverride& entry) { return entry.key == key; });
    if (existing != spec.overrides.end()) {
      existing->value = override_.value;
    } else {
      spec.overrides.push_back(std::move(override_));
    }
  }
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream stream(text);
  std::string token;
  while (stream >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(
          "parse_scenario: expected key=value, got '" + token + "'");
    }
    apply_token(spec, token.substr(0, eq), token.substr(eq + 1));
  }
  spec.validate();  // cross-field checks no single token can make
  return spec;
}

namespace {

ScenarioSpec panel(std::string name, std::string description,
                   std::string configuration,
                   sweep::SweepParameter parameter) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.configuration = std::move(configuration);
  spec.sweep_parameter = parameter;
  return spec;
}

ScenarioSpec composite(std::string name, std::string description,
                       std::string configuration) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.configuration = std::move(configuration);
  spec.all_panels = true;
  return spec;
}

}  // namespace

const std::vector<ScenarioSpec>& scenario_registry() {
  static const std::vector<ScenarioSpec> kRegistry = [] {
    std::vector<ScenarioSpec> registry;
    registry.push_back(panel("fig02", "optimum vs checkpoint time C",
                             "Atlas/Crusoe",
                             sweep::SweepParameter::kCheckpointTime));
    registry.push_back(panel("fig03", "optimum vs verification time V",
                             "Atlas/Crusoe",
                             sweep::SweepParameter::kVerificationTime));
    registry.push_back(panel("fig04", "optimum vs error rate lambda",
                             "Atlas/Crusoe",
                             sweep::SweepParameter::kErrorRate));
    registry.push_back(panel("fig05", "optimum vs performance bound rho",
                             "Atlas/Crusoe",
                             sweep::SweepParameter::kPerformanceBound));
    registry.push_back(panel("fig06", "optimum vs idle power Pidle",
                             "Atlas/Crusoe",
                             sweep::SweepParameter::kIdlePower));
    registry.push_back(panel("fig07", "optimum vs I/O power Pio",
                             "Atlas/Crusoe",
                             sweep::SweepParameter::kIoPower));
    registry.push_back(composite(
        "fig08", "all six sweeps on Hera/XScale", "Hera/XScale"));
    registry.push_back(composite(
        "fig09", "all six sweeps on Atlas/XScale", "Atlas/XScale"));
    registry.push_back(composite(
        "fig10", "all six sweeps on Coastal/XScale", "Coastal/XScale"));
    registry.push_back(composite("fig11", "all six sweeps on CoastalSSD/XScale",
                                 "CoastalSSD/XScale"));
    registry.push_back(composite(
        "fig12", "all six sweeps on Hera/Crusoe", "Hera/Crusoe"));
    registry.push_back(composite(
        "fig13", "all six sweeps on Coastal/Crusoe", "Coastal/Crusoe"));
    registry.push_back(composite("fig14", "all six sweeps on CoastalSSD/Crusoe",
                                 "CoastalSSD/Crusoe"));
    {
      // The cached exact-optimization backend over its natural panel: ρ
      // sweeps share one prepared cache, so every registered backend has a
      // registered workload.
      ScenarioSpec spec = panel(
          "exact_rho", "exact-model optimum vs rho (cached backend)",
          "Hera/XScale", sweep::SweepParameter::kPerformanceBound);
      spec.mode = core::EvalMode::kExactOptimize;
      registry.push_back(std::move(spec));
    }
    // Interleaved-verification extensions (related work, §6): the paper's
    // pattern is the m = 1 special case; these scenarios surface the
    // general patterns as a solver backend.
    {
      ScenarioSpec spec = panel(
          "interleaved_rho", "interleaved best-m overhead vs rho",
          "Hera/XScale", sweep::SweepParameter::kPerformanceBound);
      spec.max_segments = 8;
      registry.push_back(std::move(spec));
    }
    {
      // Frequent errors + cheap checks: the regime where early detection
      // pays and the best segment count climbs above 1.
      ScenarioSpec spec = panel(
          "interleaved_segments",
          "overhead vs verifications per pattern (lambda hot, V cheap)",
          "Hera/XScale", sweep::SweepParameter::kSegments);
      spec.max_segments = 8;
      spec.rho = 5.0;
      spec.overrides.push_back({"lambda", 1e-3});
      spec.overrides.push_back({"V", 1.0});
      registry.push_back(std::move(spec));
    }
    {
      // The partial-recall backend over its natural panel: first-order
      // optimization at the related work's partial verifications
      // (r = 0.8), so every registered backend has a registered workload.
      ScenarioSpec spec = panel(
          "recall_rho", "partial-recall (r = 0.8) optimum vs rho",
          "Hera/XScale", sweep::SweepParameter::kPerformanceBound);
      spec.recall_mode = true;
      spec.verification_recall = 0.8;
      registry.push_back(std::move(spec));
    }
    return registry;
  }();
  return kRegistry;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& spec : scenario_registry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const ScenarioSpec& scenario_by_name(const std::string& name) {
  if (const ScenarioSpec* spec = find_scenario(name)) return *spec;
  throw std::out_of_range("scenario_by_name: unknown scenario '" + name +
                          "'");
}

core::Solution solve_scenario(const ScenarioSpec& spec) {
  const std::unique_ptr<core::SolverBackend> backend = make_backend(spec);
  backend->prepare();
  return backend->solve(spec.rho, spec.policy, spec.min_rho_fallback);
}

sim::SimulatorOptions simulator_options(const ScenarioSpec& spec) {
  sim::SimulatorOptions options;
  options.verification_recall = spec.verification_recall;
  return options;
}

core::Solution solve_for_simulation(const ScenarioSpec& spec) {
  // Partial recall IS the recall backend's model; every other mode solves
  // at full recall and meets the value only inside the simulator.
  if (spec.recall_mode) return solve_scenario(spec);
  ScenarioSpec solver_spec = spec;
  solver_spec.verification_recall = 1.0;
  return solve_scenario(solver_spec);
}

sim::ExecutionPolicy make_policy(const ScenarioSpec& spec) {
  // The simulator bridge accepts partial recall under any mode (see
  // solve_for_simulation), so a spec carrying recall < 1 works here
  // even when its solver entry points would reject it.
  const core::Solution solution = solve_for_simulation(spec);
  if (!solution.feasible()) {
    throw std::runtime_error(
        "make_policy: scenario '" + spec.name +
        "' is infeasible at rho = " + std::to_string(spec.rho) +
        (spec.interleaved()
             ? " (interleaved mode has no min-rho fallback)"
             : " and its min-rho fallback is disabled"));
  }
  if (solution.kind() == core::SolutionKind::kInterleaved) {
    return sim::ExecutionPolicy::segmented(
        solution.interleaved().w_opt, solution.interleaved().segments,
        solution.interleaved().sigma1, solution.interleaved().sigma2);
  }
  return sim::ExecutionPolicy::from_solution(solution.pair());
}

}  // namespace rexspeed::engine
