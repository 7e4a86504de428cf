#include "rexspeed/engine/panel_job.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/store/serialize.hpp"
#include "rexspeed/store/store_key.hpp"

namespace rexspeed::engine {

namespace {

store::EntryInfo provenance(const ScenarioSpec& spec,
                            const core::SolverBackend& backend,
                            std::string kind, std::string axis,
                            std::uint64_t points) {
  store::EntryInfo info;
  info.kind = std::move(kind);
  info.scenario = spec.name;
  info.configuration = spec.configuration;
  info.backend = backend.name();
  info.backend_version = backend.capabilities().version;
  info.axis = std::move(axis);
  info.points = points;
  return info;
}

}  // namespace

std::optional<sweep::PanelSeries> PanelJob::accept(
    std::string_view blob) const {
  try {
    sweep::PanelSeries series = store::deserialize_panel_series(blob);
    // A wrong shape means a collision or a store bug; recompute is
    // always safe.
    if (series.parameter == axis && series.points.size() == points) {
      return series;
    }
  } catch (const store::SerializeError&) {
  }
  return std::nullopt;
}

std::optional<double> PanelJob::persisted_cost() const {
  if (cache == nullptr) return std::nullopt;
  return cache->lookup_cost(cost_key);
}

void PanelJob::put(const sweep::PanelSeries& series,
                   double seconds_per_point) const {
  if (cache == nullptr) return;
  store::EntryInfo entry = info;
  entry.cost_seconds_per_point = seconds_per_point;
  cache->put(key, store::serialize_panel_series(series), std::move(entry));
  if (seconds_per_point > 0.0) cache->record_cost(cost_key, seconds_per_point);
}

sweep::PanelSeries PanelJob::run(double* seconds_per_point) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  sweep::PanelSeries series = sweep->run();
  const double per_point =
      std::chrono::duration<double>(Clock::now() - start).count() /
      static_cast<double>(points);
  if (seconds_per_point != nullptr) *seconds_per_point = per_point;
  put(series, per_point);
  return series;
}

std::optional<core::Solution> SolveJob::accept(std::string_view blob) const {
  try {
    return store::deserialize_solution(blob);
  } catch (const store::SerializeError&) {
    return std::nullopt;
  }
}

core::Solution SolveJob::solve() const {
  return backend->solve(rho, policy, min_rho_fallback);
}

void SolveJob::put(const core::Solution& solution) const {
  if (cache == nullptr) return;
  cache->put(key, store::serialize_solution(solution), info);
}

core::Solution SolveJob::run() {
  if (backend->needs_prepare()) backend->prepare();
  const core::Solution solution = solve();
  put(solution);
  return solution;
}

core::ModelParams resolve_scenario(const ScenarioSpec& spec) {
  spec.validate();
  core::ModelParams params = spec.resolve_params();
  // Panels validate their bound in the PanelSweep constructor; the solve
  // calls the backend directly, so the bound is checked here.
  if (!(spec.rho > 0.0) || !std::isfinite(spec.rho)) {
    throw std::invalid_argument("scenario '" + spec.name +
                                "': rho must be positive and finite");
  }
  return params;
}

PanelJob plan_panel(const ScenarioSpec& spec, core::ModelParams params,
                    sweep::SweepParameter axis, store::ResultStore* cache,
                    sweep::ThreadPool* pool) {
  PanelJob job;
  job.axis = axis;
  job.options = spec.sweep_options(pool);
  job.backend = make_backend(spec, std::move(params));
  job.configuration = spec.configuration;
  job.grid = sweep::panel_grid(axis, spec.points, spec.segment_limit());
  job.points = job.grid.size();
  if (cache != nullptr && spec.cache) {
    job.cache = cache;
    job.key = store::panel_key(*job.backend, spec.configuration, axis,
                               job.grid, job.options,
                               spec.verification_recall);
    job.cost_key = store::cost_key(*job.backend, axis);
    job.info = provenance(spec, *job.backend, "panel",
                          core::to_string(axis), job.points);
  }
  return job;
}

SolveJob plan_solve(const ScenarioSpec& spec, core::ModelParams params,
                    store::ResultStore* cache) {
  SolveJob job;
  job.rho = spec.rho;
  job.policy = spec.policy;
  job.min_rho_fallback = spec.min_rho_fallback;
  job.backend = make_backend(spec, std::move(params));
  if (cache != nullptr && spec.cache) {
    job.cache = cache;
    job.key = store::solve_key(*job.backend, spec.rho, spec.policy,
                               spec.min_rho_fallback,
                               spec.verification_recall);
    job.info = provenance(spec, *job.backend, "solution", "-", 1);
  }
  return job;
}

ScenarioJob plan_scenario(const ScenarioSpec& spec,
                          store::ResultStore* cache) {
  core::ModelParams params = resolve_scenario(spec);
  ScenarioJob job;
  if (spec.kind() == ScenarioKind::kSolve) {
    job.solve = plan_solve(spec, std::move(params), cache);
    return job;
  }
  for (const sweep::SweepParameter axis : scenario_panel_axes(spec)) {
    job.panels.push_back(plan_panel(spec, params, axis, cache));
  }
  return job;
}

void fetch_jobs(std::span<ScenarioJob> jobs,
                const store::ParallelFor& parallel) {
  // The cached jobs, panels first, with their keys in the same order.
  // Each sink call writes only its own job's `hit`, so the decodes may run
  // on any thread.
  store::ResultStore* cache = nullptr;
  std::vector<PanelJob*> panels;
  std::vector<SolveJob*> solves;
  std::vector<std::string> keys;
  for (ScenarioJob& job : jobs) {
    for (PanelJob& panel : job.panels) {
      if (panel.cache == nullptr) continue;
      cache = panel.cache;
      panels.push_back(&panel);
      keys.push_back(panel.key);
    }
  }
  for (ScenarioJob& job : jobs) {
    if (!job.solve || job.solve->cache == nullptr) continue;
    cache = job.solve->cache;
    solves.push_back(&*job.solve);
    keys.push_back(job.solve->key);
  }
  if (cache != nullptr) {
    const auto decode = [&](std::size_t i, std::string_view blob) {
      if (i < panels.size()) {
        panels[i]->hit = panels[i]->accept(blob);
      } else {
        SolveJob& solve = *solves[i - panels.size()];
        solve.hit = solve.accept(blob);
      }
    };
    cache->fetch_many(keys, parallel, decode);
  }

  // On this thread: construction validates and may throw.
  for (ScenarioJob& job : jobs) {
    for (PanelJob& panel : job.panels) {
      if (!panel.hit) {
        panel.sweep.emplace(std::move(panel.backend),
                            std::move(panel.configuration), panel.axis,
                            std::move(panel.grid), panel.options);
      }
      panel.backend.reset();
      panel.grid = {};
    }
    if (job.solve && job.solve->hit) job.solve->backend.reset();
  }
}

}  // namespace rexspeed::engine
