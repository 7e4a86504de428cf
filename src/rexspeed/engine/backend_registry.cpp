#include "rexspeed/engine/backend_registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace rexspeed::engine {

namespace {

std::vector<sweep::SweepParameter> interleaved_axes() {
  return {sweep::SweepParameter::kPerformanceBound,
          sweep::SweepParameter::kSegments};
}

}  // namespace

const std::vector<BackendEntry>& backend_registry() {
  static const std::vector<BackendEntry> kRegistry = [] {
    std::vector<BackendEntry> registry;
    registry.push_back(
        {"first-order",
         "Theorem 1 closed forms (the paper's procedure, 5.2 window)",
         sweep::all_sweep_parameters(),
         [](core::ModelParams params, const ScenarioSpec&) {
           return std::make_unique<core::ClosedFormBackend>(
               std::move(params), core::EvalMode::kFirstOrder);
         }});
    registry.push_back(
        {"exact-eval",
         "Theorem 1 pattern size, overheads from the exact expectations",
         sweep::all_sweep_parameters(),
         [](core::ModelParams params, const ScenarioSpec&) {
           return std::make_unique<core::ClosedFormBackend>(
               std::move(params), core::EvalMode::kExactEvaluation);
         }});
    registry.push_back(
        {"exact-opt",
         "cached exact-model optimization (valid for any error rates)",
         sweep::all_sweep_parameters(),
         [](core::ModelParams params, const ScenarioSpec&) {
           return std::make_unique<core::ExactOptBackend>(
               std::move(params));
         }});
    registry.push_back(
        {"interleaved",
         "segmented interleaved-verification patterns (related work, m >= 1)",
         interleaved_axes(),
         [](core::ModelParams params, const ScenarioSpec& spec) {
           return std::make_unique<core::InterleavedBackend>(
               std::move(params), spec.segment_limit(), spec.segments);
         }});
    registry.push_back(
        {"recall",
         "first-order optimization under partial verification recall r",
         sweep::all_sweep_parameters(),
         [](core::ModelParams params, const ScenarioSpec& spec) {
           return std::make_unique<core::ClosedFormBackend>(
               std::move(params), spec.verification_recall);
         }});
    return registry;
  }();
  return kRegistry;
}

const BackendEntry* find_backend(std::string_view mode) {
  for (const BackendEntry& entry : backend_registry()) {
    if (entry.name == mode) return &entry;
  }
  return nullptr;
}

const BackendEntry& backend_by_name(const std::string& mode) {
  if (const BackendEntry* entry = find_backend(mode)) return *entry;
  std::ostringstream known;
  const auto& registry = backend_registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    if (i > 0) known << (i + 1 == registry.size() ? " or " : ", ");
    known << registry[i].name;
  }
  throw std::invalid_argument("backend_registry: unknown mode '" + mode +
                              "' (expected " + known.str() + ")");
}

std::string backend_mode_name(const ScenarioSpec& spec) {
  if (spec.interleaved()) return "interleaved";
  if (spec.recall_mode) return "recall";
  return core::to_mode_name(spec.mode);
}

std::unique_ptr<core::SolverBackend> make_backend(const ScenarioSpec& spec,
                                                  core::ModelParams params) {
  spec.validate();
  const std::string mode = backend_mode_name(spec);
  if (spec.verification_recall < 1.0 && mode != "recall") {
    std::ostringstream message;
    message << "scenario '" << spec.name
            << "': verification_recall=" << spec.verification_recall
            << " needs the partial-recall backend, but the '" << mode
            << "' solver backend requires full recall — set mode=recall "
               "(first-order optimization over the recall-scaled rate) or "
               "drop the key; `rexspeed simulate` additionally executes "
               "partial recall under any mode";
    throw std::invalid_argument(message.str());
  }
  return backend_by_name(mode).factory(std::move(params), spec);
}

std::unique_ptr<core::SolverBackend> make_backend(const ScenarioSpec& spec) {
  return make_backend(spec, spec.resolve_params());
}

std::vector<sweep::SweepParameter> scenario_panel_axes(
    const ScenarioSpec& spec) {
  spec.validate();
  switch (spec.kind()) {
    case ScenarioKind::kSweep:
      return {*spec.sweep_parameter};
    case ScenarioKind::kAllSweeps:
      return backend_by_name(backend_mode_name(spec)).panel_axes;
    case ScenarioKind::kSolve:
      break;
  }
  throw std::invalid_argument(
      "scenario_panel_axes: scenario '" + spec.name +
      "' is a solve (param=none) and produces no panels; use "
      "solve_scenario or CampaignRunner::run_one for its solution");
}

}  // namespace rexspeed::engine
