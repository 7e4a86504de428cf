#include "rexspeed/engine/campaign_runner.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <utility>

#include "rexspeed/engine/panel_job.hpp"
#include "rexspeed/store/result_store.hpp"

namespace rexspeed::engine {

namespace {

/// One cache-missed panel of the stream: its job and where its finished
/// series lands once the stream drains.
struct PanelOutput {
  PanelJob job;
  sweep::PanelSeries* series = nullptr;
  double seconds_per_point = 0.0;  ///< measured or persisted
};

/// A kSolve scenario's single task. The backend is built (cheap,
/// validating) at plan time; its heavyweight cache — the dominant cost of
/// the exact and interleaved modes — is paid by prepare() in the pooled
/// phase-1.5 barrier alongside the panels'.
struct SolveOutput {
  SolveJob job;
  core::Solution* solution = nullptr;
};

}  // namespace

CampaignRunner::CampaignRunner(CampaignRunnerOptions options)
    : pool_(options.threads), store_(options.store) {}

std::vector<ScenarioResult> CampaignRunner::run(
    const std::vector<ScenarioSpec>& specs) const {
  // Phase 1: plan every scenario through the engine's one plan-and-cache
  // path (panel_job.hpp) — the same backends, grids, keys and
  // sweep::PanelSweep setup as every other driver, so campaign results
  // are bit-identical to per-scenario runs by construction. Planning is
  // serial and cheap; fetch_jobs then loads, verifies and decodes every
  // store entry across the pool, and verified hits fill their result slot
  // and build nothing. All validation errors surface here, before any
  // solve task is submitted; tasks themselves are pure solver math on
  // validated inputs and cannot throw. Jobs live in deques so task
  // lambdas hold stable pointers.
  std::vector<ScenarioJob> jobs;
  jobs.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    jobs.push_back(plan_scenario(spec, store_));
  }
  fetch_jobs(jobs, sweep::make_parallel_build(pool()));

  std::vector<ScenarioResult> results(specs.size());
  std::deque<PanelOutput> panels;
  std::deque<SolveOutput> solves;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    ScenarioResult& result = results[s];
    result.spec = specs[s];
    ScenarioJob& job = jobs[s];
    if (job.solve) {
      if (job.solve->hit) {
        result.solution = *job.solve->hit;
      } else {
        solves.push_back({std::move(*job.solve), &result.solution});
      }
      continue;
    }
    result.panels.resize(job.panels.size());
    for (std::size_t p = 0; p < job.panels.size(); ++p) {
      if (job.panels[p].hit) {
        result.panels[p] = std::move(*job.panels[p].hit);
      } else {
        panels.push_back({std::move(job.panels[p]), &result.panels[p]});
      }
    }
  }

  // Phase 1.5: prepare every missed panel across the pool. That sizes its
  // series — the first touch of the campaign's result storage, ≈112 MB at
  // 10001 points, which a serial planning phase would fault in on one
  // thread — and builds the heavyweight deferred caches: the interleaved
  // solvers (per-(σ1,σ2,m) curve optimization) and the exact backends
  // (per-(σ1,σ2) exact curve optimization), each the dominant cost of its
  // panel or solve. Which plans need a cache is the backend's business
  // (needs_prepare), not a mode branch. Solve backends prepare here too:
  // left to their stream task, a heavy interleaved/exact solve would
  // rebuild its whole cache serially on one worker at whatever point the
  // scheduler placed it — exactly the tail the longest-first ordering
  // below exists to avoid. Every plan was fully validated above so
  // prepare() cannot throw.
  std::vector<std::function<void()>> prepare_tasks;
  for (PanelOutput& output : panels) {
    sweep::PanelSweep& plan = *output.job.sweep;
    prepare_tasks.push_back([&plan] { plan.prepare(); });
  }
  for (SolveOutput& output : solves) {
    core::SolverBackend& backend = *output.job.backend;
    if (backend.needs_prepare()) {
      prepare_tasks.push_back([&backend] { backend.prepare(); });
    }
  }
  if (!prepare_tasks.empty()) {
    sweep::parallel_for(
        pool(), prepare_tasks.size(),
        [&prepare_tasks](std::size_t i) { prepare_tasks[i](); });
  }

  // Phase 1.75 (serial): measure each panel's actual cost with one timed
  // one-point probe instead of trusting the backend's static cost_weight
  // prior — the prior cannot see grid difficulty, kernel tier, or
  // machine, and a misranked long panel is exactly the tail the ordering
  // exists to avoid. Ordering cannot change results — every task writes
  // only its own slots — so the nondeterministic timings are safe as a
  // sort key.
  struct TaskGroup {
    double cost = 0.0;
    sweep::PanelSweep* panel = nullptr;  ///< null for solve groups
    SolveOutput* solve = nullptr;
  };
  std::vector<TaskGroup> groups;
  groups.reserve(panels.size() + solves.size());
  for (PanelOutput& output : panels) {
    sweep::PanelSweep& plan = *output.job.sweep;
    // A persisted measured cost (recorded by an earlier run of this
    // backend + axis on this machine) replaces the probe outright: the
    // ordering is seeded before any timing runs.
    const auto points = static_cast<double>(plan.point_count());
    if (const std::optional<double> persisted = output.job.persisted_cost()) {
      output.seconds_per_point = *persisted;
      groups.push_back({*persisted * points, &plan, nullptr});
      continue;
    }
    const double cost = plan.measure_cost();
    output.seconds_per_point = cost / points;
    groups.push_back({cost, &plan, nullptr});
  }
  for (SolveOutput& output : solves) {
    // Solves are single post-prepare feasibility lookups — cheapest of
    // all; rank them below any measured panel.
    groups.push_back({-output.job.backend->capabilities().cost_weight,
                      nullptr, &output});
  }
  // Stable: equal-cost groups keep scenario order, so the stream itself
  // stays deterministic for a given set of timings (not that results
  // could tell).
  std::stable_sort(groups.begin(), groups.end(),
                   [](const TaskGroup& a, const TaskGroup& b) {
                     return a.cost > b.cost;
                   });

  // Phase 2: ONE flattened task stream — every (scenario × panel ×
  // chunk) plus every solve, with no barrier until the campaign's end,
  // ordered longest-first by the measured costs above. A chunk is a
  // contiguous run of ⌈points / threads⌉ grid points solved in one
  // backend call (a warm-start chain is one chunk by nature), so a long
  // panel spreads across the pool without paying a task per point.
  const unsigned threads = pool_.thread_count();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(solves.size() + panels.size() * threads);
  for (const TaskGroup& group : groups) {
    if (group.panel != nullptr) {
      sweep::PanelSweep* plan = group.panel;
      const std::size_t size = plan->chunk_size(threads);
      for (std::size_t begin = 0; begin < plan->point_count();
           begin += size) {
        const std::size_t end = std::min(plan->point_count(), begin + size);
        tasks.push_back([plan, begin, end] { plan->solve_chunk(begin, end); });
      }
      continue;
    }
    SolveOutput* output = group.solve;
    // The cache was prepared in phase 1.5.
    tasks.push_back([output] { *output->solution = output->job.solve(); });
  }

  sweep::parallel_for(pool(), tasks.size(),
                      [&tasks](std::size_t i) { tasks[i](); });

  for (PanelOutput& output : panels) {
    *output.series = output.job.sweep->take();
  }

  // Store every missed result (healing any corrupt entry under the same
  // key) and feed the measured costs back for the next run's ordering, in
  // one put_many that encodes and writes across the pool, after the
  // barrier: puts touch the filesystem, not solver state. A failed write
  // loses cache warmth, never the results, so it becomes an incident.
  incidents_.clear();
  if (store_ != nullptr) {
    std::vector<store::PutEntry> entries;
    for (const PanelOutput& output : panels) {
      if (output.job.cache == nullptr) continue;
      entries.push_back(
          output.job.entry(*output.series, output.seconds_per_point));
    }
    for (const SolveOutput& output : solves) {
      if (output.job.cache == nullptr) continue;
      entries.push_back(output.job.entry(*output.solution));
    }
    incidents_ =
        store_results(*store_, entries, sweep::make_parallel_build(pool()));
  }
  return results;
}

ScenarioResult CampaignRunner::run_one(const ScenarioSpec& spec) const {
  std::vector<ScenarioResult> results = run({spec});
  return std::move(results.front());
}

}  // namespace rexspeed::engine
