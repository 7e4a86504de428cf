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

/// Puts one job's entry for the drivers that run one job at a time (the
/// sweep engine, a shard worker): whatever put_many could not do is
/// thrown, as a plain put would, so the driver reports it. The campaign
/// and the shard coordinator turn failures into incidents instead
/// (store_results).
void put_or_throw(store::ResultStore& cache, store::PutEntry entry) {
  const store::PutFailures failures = cache.put_many({std::move(entry)}, {});
  if (!failures.entries.empty()) {
    throw store::StoreError("entry not stored: " +
                            failures.entries.front());
  }
  if (!failures.costs.empty()) {
    throw store::StoreError("cost not recorded: " +
                            failures.costs.front());
  }
}

}  // namespace

std::optional<sweep::PanelSeries> PanelJob::accept(
    std::string_view blob) const {
  try {
    // A wrong shape means a collision or a store bug; recompute is
    // always safe. The point count is checked before anything is sized.
    sweep::PanelSeries series = store::decode_panel_entry(blob, points);
    if (series.parameter == axis) return series;
  } catch (const store::SerializeError&) {
  }
  return std::nullopt;
}

std::optional<double> PanelJob::persisted_cost() const {
  if (cache == nullptr) return std::nullopt;
  return cache->lookup_cost(cost_key);
}

store::PutEntry PanelJob::entry(const sweep::PanelSeries& series,
                                double seconds_per_point) const {
  store::PutEntry entry;
  entry.key = key;
  entry.info = info;
  entry.info.canonical_size = store::canonical_size(series);
  entry.info.cost_seconds_per_point = seconds_per_point;
  entry.encode = [&series] { return store::encode_panel_entry(series); };
  entry.cost_key = cost_key;
  return entry;
}

sweep::PanelSeries PanelJob::compute(double* seconds_per_point) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  sweep::PanelSeries series = sweep->run();
  if (seconds_per_point != nullptr) {
    *seconds_per_point =
        std::chrono::duration<double>(Clock::now() - start).count() /
        static_cast<double>(points);
  }
  return series;
}

sweep::PanelSeries PanelJob::run(double* seconds_per_point) {
  double per_point = 0.0;
  sweep::PanelSeries series = compute(&per_point);
  if (seconds_per_point != nullptr) *seconds_per_point = per_point;
  if (cache != nullptr) put_or_throw(*cache, entry(series, per_point));
  return series;
}

std::optional<core::Solution> SolveJob::accept(std::string_view blob) const {
  try {
    return store::decode_solution_entry(blob);
  } catch (const store::SerializeError&) {
    return std::nullopt;
  }
}

core::Solution SolveJob::solve() const {
  return backend->solve(rho, policy, min_rho_fallback);
}

store::PutEntry SolveJob::entry(const core::Solution& solution) const {
  store::PutEntry entry;
  entry.key = key;
  entry.info = info;
  entry.info.canonical_size = store::canonical_size(solution);
  entry.encode = [&solution] { return store::encode_solution_entry(solution); };
  return entry;
}

core::Solution SolveJob::compute() {
  if (backend->needs_prepare()) backend->prepare();
  return solve();
}

core::Solution SolveJob::run() {
  const core::Solution solution = compute();
  if (cache != nullptr) put_or_throw(*cache, entry(solution));
  return solution;
}

std::vector<std::string> store_results(
    store::ResultStore& cache, const std::vector<store::PutEntry>& entries,
    const store::ParallelFor& parallel) {
  std::vector<std::string> incidents;
  const store::PutFailures failures = cache.put_many(entries, parallel);
  if (!failures.entries.empty()) {
    incidents.push_back(
        "cache: " + std::to_string(failures.entries.size()) + " of " +
        std::to_string(entries.size()) + " entries not stored (first: " +
        failures.entries.front() + "); they recompute on the next run");
  }
  if (!failures.costs.empty()) {
    incidents.push_back("cache: " + std::to_string(failures.costs.size()) +
                        " measured costs not recorded (first: " +
                        failures.costs.front() + "); their entries are stored");
  }
  try {
    cache.flush();
  } catch (const store::StoreError& error) {
    incidents.push_back(std::string("cache: counters not saved: ") +
                        error.what());
  }
  return incidents;
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
