// Chunked panel scheduling: a panel's unit of work is a contiguous chunk
// of its grid, solved in one backend solve_batch call. Batched ρ grids
// must be BIT-identical to a loop of the backend's own solve_panel_point;
// the chunking itself must be invisible — any pool size, any grid size,
// on ρ, model and segments axes; and warm-start chains along exact
// model-axis grids must stay one in-order chunk that agrees with the
// unseeded per-point reference loop within numeric tolerance (the seeds
// steer only the bracketing, never the optimum). Both drivers —
// run_panel_sweep and the campaign stream — split panels through the same
// PanelSweep, so these checks cover the campaign path too.

#include "rexspeed/sweep/panel_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "rexspeed/sweep/thread_pool.hpp"
#include "test_util.hpp"

namespace rexspeed::sweep {
namespace {

using test::expect_identical_panel;

core::ModelParams interleavable_params() {
  core::ModelParams params = test::params_for("Hera/XScale");
  params.lambda_silent = 1e-3;
  params.verification_s = 1.0;
  return params;
}

/// A ρ panel through PanelSweep, serially: one solve_batch chunk.
PanelSeries run_rho_panel(std::unique_ptr<core::SolverBackend> backend,
                          std::size_t points = 21) {
  return run_panel_sweep(
      std::move(backend), "test", SweepParameter::kPerformanceBound,
      default_grid(SweepParameter::kPerformanceBound, points), {});
}

/// The reference a batched panel must match: the backend's own per-point
/// solve, looped over the same grid with the same default options.
PanelSeries pointwise_rho_panel(std::unique_ptr<core::SolverBackend> backend,
                                std::size_t points = 21,
                                const std::string& configuration = "test") {
  const SweepOptions options;
  backend->prepare();
  PanelSeries series;
  series.parameter = SweepParameter::kPerformanceBound;
  series.configuration = configuration;
  series.rho = options.rho;
  series.kind = backend->capabilities().kind;
  series.max_segments = backend->capabilities().max_segments;
  for (const double rho :
       default_grid(SweepParameter::kPerformanceBound, points)) {
    series.points.push_back(backend->solve_panel_point(
        SweepParameter::kPerformanceBound, rho, options.rho,
        options.min_rho_fallback));
  }
  return series;
}

TEST(BatchedRhoPanel, FirstOrderBatchedEqualsPointwiseBitForBit) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  const PanelSeries batched =
      run_rho_panel(std::make_unique<core::ClosedFormBackend>(
          params, core::EvalMode::kFirstOrder));
  const PanelSeries pointwise =
      pointwise_rho_panel(std::make_unique<core::ClosedFormBackend>(
          params, core::EvalMode::kFirstOrder));
  expect_identical_panel(batched, pointwise);
}

TEST(BatchedRhoPanel, ExactOptBatchedEqualsPointwiseBitForBit) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  const PanelSeries batched =
      run_rho_panel(std::make_unique<core::ExactOptBackend>(params), 11);
  const PanelSeries pointwise =
      pointwise_rho_panel(std::make_unique<core::ExactOptBackend>(params), 11);
  expect_identical_panel(batched, pointwise);
}

TEST(BatchedRhoPanel, InterleavedBatchedEqualsPointwiseBitForBit) {
  const core::ModelParams params = interleavable_params();
  const PanelSeries batched = run_rho_panel(
      std::make_unique<core::InterleavedBackend>(params, 6), 11);
  const PanelSeries pointwise = pointwise_rho_panel(
      std::make_unique<core::InterleavedBackend>(params, 6), 11);
  expect_identical_panel(batched, pointwise);
}

/// A grid of `points` values on `axis`'s paper range (segments cycle
/// through 1..max_segments, so any size fits).
std::vector<double> chunk_test_grid(SweepParameter axis, std::size_t points,
                                    unsigned max_segments) {
  if (axis != SweepParameter::kSegments) {
    // default_grid needs two points; a one-point panel takes a midpoint.
    return points > 1 ? default_grid(axis, points)
                      : std::vector<double>{default_grid(axis, 3)[1]};
  }
  std::vector<double> grid(points);
  for (std::size_t i = 0; i < points; ++i) {
    grid[i] = static_cast<double>(1 + i % max_segments);
  }
  return grid;
}

TEST(ChunkedPanel, ChunkingIsInvisible) {
  // Every point is independent, so splitting a panel into ⌈n / threads⌉
  // chunks across 1–4 workers must give the serial series bit for bit,
  // for grids smaller than, equal to and much larger than the pool.
  using Make = std::function<std::unique_ptr<core::SolverBackend>()>;
  const auto closed_form = [](core::EvalMode mode) -> Make {
    return [mode]() -> std::unique_ptr<core::SolverBackend> {
      return std::make_unique<core::ClosedFormBackend>(
          test::params_for("Hera/XScale"), mode);
    };
  };
  const struct {
    const char* label;
    SweepParameter axis;
    Make make;
  } panels[] = {
      {"first-order rho", SweepParameter::kPerformanceBound,
       closed_form(core::EvalMode::kFirstOrder)},
      {"first-order C", SweepParameter::kCheckpointTime,
       closed_form(core::EvalMode::kFirstOrder)},
      {"first-order lambda", SweepParameter::kErrorRate,
       closed_form(core::EvalMode::kFirstOrder)},
      {"exact-eval Pidle", SweepParameter::kIdlePower,
       closed_form(core::EvalMode::kExactEvaluation)},
      {"interleaved segments", SweepParameter::kSegments,
       []() -> std::unique_ptr<core::SolverBackend> {
         return std::make_unique<core::InterleavedBackend>(
             interleavable_params(), 4);
       }},
  };
  for (const auto& panel : panels) {
    for (const std::size_t points : {1u, 2u, 7u, 1001u}) {
      SCOPED_TRACE(std::string(panel.label) + ", " + std::to_string(points) +
                   " points");
      const std::vector<double> grid = chunk_test_grid(
          panel.axis, points, panel.make()->capabilities().max_segments);
      const PanelSeries serial =
          run_panel_sweep(panel.make(), "test", panel.axis, grid, {});
      for (const unsigned threads : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        SweepOptions options;
        options.pool = &pool;
        expect_identical_panel(
            run_panel_sweep(panel.make(), "test", panel.axis, grid, options),
            serial);
      }
    }
  }
}

TEST(ChunkedPanel, ChunkSizeSplitsEvenlyAndMeasureCostIsTransient) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  const std::vector<double> grid =
      default_grid(SweepParameter::kCheckpointTime, 7);
  PanelSweep plan(std::make_unique<core::ClosedFormBackend>(
                      params, core::EvalMode::kFirstOrder),
                  "test", SweepParameter::kCheckpointTime, grid, {});
  EXPECT_EQ(plan.chunk_size(1), 7u);
  EXPECT_EQ(plan.chunk_size(3), 3u);
  EXPECT_EQ(plan.chunk_size(4), 2u);
  EXPECT_EQ(plan.chunk_size(16), 1u);
  // The probe's point is discarded; the chunks recompute everything.
  EXPECT_GE(plan.measure_cost(), 0.0);
  plan.solve_chunk(0, 3);
  plan.solve_chunk(3, 7);
  expect_identical_panel(
      plan.take(),
      run_panel_sweep(std::make_unique<core::ClosedFormBackend>(
                          params, core::EvalMode::kFirstOrder),
                      "test", SweepParameter::kCheckpointTime, grid, {}));
}

TEST(ChunkedPanel, UnpreparedChunksOnAPoolSizeTheSeriesOnce) {
  // A panel nobody prepared sizes its series on its first chunk; chunks
  // racing on a pool must all see that one allocation.
  const core::ModelParams params = test::params_for("Hera/XScale");
  const std::vector<double> grid =
      default_grid(SweepParameter::kPerformanceBound, 257);
  const auto backend = [&params] {
    return std::make_unique<core::ClosedFormBackend>(
        params, core::EvalMode::kFirstOrder);
  };
  PanelSweep plan(backend(), "test", SweepParameter::kPerformanceBound, grid,
                  {});
  ASSERT_FALSE(plan.needs_prepare());
  ThreadPool pool(4);
  constexpr std::size_t kChunk = 16;
  parallel_for(&pool, (grid.size() + kChunk - 1) / kChunk,
               [&plan, &grid](std::size_t c) {
                 plan.solve_chunk(c * kChunk,
                                  std::min(grid.size(), (c + 1) * kChunk));
               });
  expect_identical_panel(
      plan.take(), run_panel_sweep(backend(), "test",
                                   SweepParameter::kPerformanceBound, grid,
                                   {}));
}

/// Tolerance agreement for warm-vs-cold chains: identical discrete
/// choices (feasibility, fallback, speed indices) and numerically equal
/// continuous outputs — the seeds may change the bracketing walk, so the
/// last few ulps of the 1e-10-tolerance optimizer are not guaranteed.
void expect_chain_agrees(const PanelSeries& warm, const PanelSeries& cold) {
  ASSERT_EQ(warm.points.size(), cold.points.size());
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    const core::PanelPoint& a = warm.points[i];
    const core::PanelPoint& b = cold.points[i];
    EXPECT_EQ(a.x, b.x);
    const core::Solution* sides[2][2] = {{&a.primary, &b.primary},
                                         {&a.baseline, &b.baseline}};
    for (const auto& side : sides) {
      const core::Solution& w = *side[0];
      const core::Solution& c = *side[1];
      ASSERT_EQ(w.feasible(), c.feasible()) << "x=" << a.x;
      EXPECT_EQ(w.used_fallback, c.used_fallback) << "x=" << a.x;
      if (!w.feasible()) continue;
      EXPECT_EQ(w.sigma1(), c.sigma1()) << "x=" << a.x;
      EXPECT_EQ(w.sigma2(), c.sigma2()) << "x=" << a.x;
      EXPECT_NEAR(w.w_opt(), c.w_opt(),
                  1e-6 * std::max(1.0, std::abs(c.w_opt())))
          << "x=" << a.x;
      EXPECT_NEAR(w.energy_overhead(), c.energy_overhead(),
                  1e-8 * std::max(1.0, std::abs(c.energy_overhead())))
          << "x=" << a.x;
    }
  }
}

/// The cold reference of a chained panel: the per-point unseeded loop
/// (SolverBackend::solve_batch's default, called non-virtually), one
/// fresh rebind per grid point.
PanelSeries unseeded_panel(const core::SolverBackend& backend,
                           SweepParameter axis,
                           const std::vector<double>& grid) {
  const SweepOptions defaults;
  PanelSeries series;
  series.parameter = axis;
  series.points.resize(grid.size());
  backend.core::SolverBackend::solve_batch(
      axis, grid.data(), grid.size(), defaults.rho,
      defaults.min_rho_fallback, series.points.data());
  return series;
}

TEST(WarmStartChain, ExactModelAxesAgreeWithColdRebinds) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  for (const SweepParameter axis :
       {SweepParameter::kCheckpointTime, SweepParameter::kVerificationTime,
        SweepParameter::kErrorRate}) {
    const std::vector<double> grid = default_grid(axis, 7);
    const PanelSeries warm = run_panel_sweep(
        std::make_unique<core::ExactOptBackend>(params), "test", axis, grid,
        {});
    expect_chain_agrees(
        warm, unseeded_panel(core::ExactOptBackend(params), axis, grid));
  }
}

TEST(WarmStartChain, ChainedPanelIsOneInOrderChunk) {
  const core::ModelParams params = test::params_for("Hera/XScale");
  const std::vector<double> grid =
      default_grid(SweepParameter::kCheckpointTime, 5);
  PanelSweep chained(std::make_unique<core::ExactOptBackend>(params), "test",
                     SweepParameter::kCheckpointTime, grid, {});
  EXPECT_EQ(chained.chunk_size(4), grid.size());
  // A backend without warm_start_chain splits the same axis.
  PanelSweep unchained(std::make_unique<core::ClosedFormBackend>(
                           params, core::EvalMode::kFirstOrder),
                       "test", SweepParameter::kCheckpointTime, grid, {});
  EXPECT_EQ(unchained.chunk_size(4), 2u);

  // The serial chain, link by link: each point's rebind seeded from its
  // neighbor's harvest. A pooled run must reproduce it bit for bit.
  const SweepOptions defaults;
  const core::ExactOptBackend base(params);
  PanelSeries reference;
  reference.parameter = SweepParameter::kCheckpointTime;
  reference.configuration = "test";
  reference.rho = defaults.rho;
  reference.kind = base.capabilities().kind;
  reference.max_segments = base.capabilities().max_segments;
  core::PairSeedTable seeds;
  core::PairSeedTable harvest;
  for (const double x : grid) {
    const auto link = base.rebind(
        apply_parameter(params, SweepParameter::kCheckpointTime, x),
        seeds.empty() ? nullptr : &seeds);
    link->prepare();
    reference.points.push_back(link->solve_panel_point_seeded(
        SweepParameter::kCheckpointTime, x, defaults.rho,
        defaults.min_rho_fallback, &harvest));
    std::swap(seeds, harvest);
  }
  ThreadPool pool(4);
  SweepOptions pooled;
  pooled.pool = &pool;
  expect_identical_panel(
      run_panel_sweep(std::make_unique<core::ExactOptBackend>(params),
                      "test", SweepParameter::kCheckpointTime, grid, pooled),
      reference);
}

TEST(ChunkedPanel, CampaignMatchesStandaloneThroughChunkedPanels) {
  // The campaign stream schedules a ρ panel as ⌈points / threads⌉-point
  // chunks; the result must still be bit-identical to the standalone
  // engine run of the same scenario, serial or pooled.
  engine::ScenarioSpec spec;
  spec.name = "chunked_rho";
  spec.configuration = "Hera/XScale";
  spec.sweep_parameter = SweepParameter::kPerformanceBound;
  spec.points = 9;
  const engine::SweepEngine engine({.threads = 1});
  const PanelSeries standalone = engine.run_axis(spec, *spec.sweep_parameter);
  for (const unsigned threads : {1u, 4u}) {
    const engine::CampaignRunner runner({.threads = threads});
    const engine::ScenarioResult result = runner.run_one(spec);
    ASSERT_EQ(result.panels.size(), 1u);
    expect_identical_panel(result.panels.front(), standalone);
  }
  // And the backend's own per-point loop agrees bit for bit — the batched
  // kernels are an implementation detail of the panel.
  expect_identical_panel(pointwise_rho_panel(engine::make_backend(spec),
                                             spec.points, spec.configuration),
                         standalone);
}

}  // namespace
}  // namespace rexspeed::sweep
