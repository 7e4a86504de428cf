#include "rexspeed/engine/sweep_engine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/panel_job.hpp"
#include "rexspeed/engine/solver_context.hpp"
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

sweep::FigureSeries SweepEngine::run_panel(
    const platform::Configuration& config, sweep::SweepParameter parameter,
    sweep::SweepOptions options) const {
  options.pool = pool();
  return sweep::run_figure_sweep(config, parameter, options);
}

sweep::FigureSeries SweepEngine::run(const ScenarioSpec& spec) const {
  if (!spec.sweep_parameter) {
    throw std::invalid_argument("SweepEngine::run: scenario '" + spec.name +
                                "' has no sweep parameter");
  }
  return sweep::to_figure_series(run_axis(spec, *spec.sweep_parameter));
}

std::vector<sweep::FigureSeries> SweepEngine::run_all(
    const ScenarioSpec& spec) const {
  ScenarioSpec composite = spec;
  composite.all_panels = true;
  composite.sweep_parameter.reset();
  std::vector<sweep::FigureSeries> panels;
  for (const sweep::PanelSeries& panel : run_scenario(composite)) {
    panels.push_back(sweep::to_figure_series(panel));
  }
  return panels;
}

sweep::InterleavedSeries SweepEngine::run_interleaved(
    const ScenarioSpec& spec, sweep::SweepParameter parameter) const {
  return sweep::to_interleaved_series(run_axis(spec, parameter));
}

std::vector<std::vector<sweep::SpeedPairRow>> SweepEngine::speed_pair_tables(
    const ScenarioSpec& spec, const std::vector<double>& bounds) const {
  // Capabilities are readable before prepare(), so backends without a
  // pair table are rejected BEFORE their (possibly expensive) cache is
  // built — and here rather than inside a pool worker (tasks must not
  // throw).
  std::unique_ptr<core::SolverBackend> backend = make_backend(spec);
  if (!backend->capabilities().pair_table) {
    throw std::invalid_argument(
        "SweepEngine::speed_pair_tables: backend '" +
        std::string(backend->name()) + "' has no speed-pair table");
  }
  // The context prepares whatever cache the backend defers (across the
  // pool), so each bound's table below is feasibility math instead of a
  // fresh per-pair numeric optimization — one path for every mode.
  const SolverContext context(std::move(backend), pool());
  std::vector<std::vector<sweep::SpeedPairRow>> tables(bounds.size());
  sweep::parallel_for(pool(), bounds.size(), [&](std::size_t i) {
    tables[i] = sweep::speed_pair_table(context.backend(), bounds[i]);
  });
  return tables;
}

}  // namespace rexspeed::engine
