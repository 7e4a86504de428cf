#include "rexspeed/engine/sweep_engine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/panel_job.hpp"
#include "rexspeed/store/result_store.hpp"

namespace rexspeed::engine {

SweepEngine::SweepEngine(SweepEngineOptions options)
    : pool_(options.threads), store_(options.store) {}

sweep::PanelSeries SweepEngine::run_axis(const ScenarioSpec& spec,
                                         sweep::SweepParameter axis) const {
  // The campaign's plan-and-cache step (panel_job.hpp), planned onto this
  // engine's pool: a verified hit replaces the whole sweep, anything else
  // runs it across the pool and stores it under the same key.
  ScenarioJob planned;
  planned.panels.push_back(
      plan_panel(spec, resolve_scenario(spec), axis, store_, pool()));
  fetch_jobs({&planned, 1});
  PanelJob& job = planned.panels.front();
  if (job.hit) return std::move(*job.hit);
  sweep::PanelSeries series = job.run();
  if (store_ != nullptr) store_->flush();
  return series;
}

std::vector<sweep::PanelSeries> SweepEngine::run_scenario(
    const ScenarioSpec& spec) const {
  spec.validate();
  if (spec.kind() == ScenarioKind::kSolve) {
    // A solve has no panels; silently running all six (the historical
    // fallthrough) hid scenario-authoring mistakes. Point callers at the
    // panel-free entry points instead.
    throw std::invalid_argument(
        "SweepEngine::run_scenario: scenario '" + spec.name +
        "' is a solve (param=none) and produces no figure panels; use "
        "solve_scenario or CampaignRunner::run_one for its solution");
  }
  std::vector<sweep::PanelSeries> panels;
  for (const sweep::SweepParameter axis : scenario_panel_axes(spec)) {
    panels.push_back(run_axis(spec, axis));
  }
  return panels;
}

}  // namespace rexspeed::engine
