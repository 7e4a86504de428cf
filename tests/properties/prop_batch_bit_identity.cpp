// Property: solve_batch is bit-identical to the per-point reference for
// EVERY registered backend, on EVERY axis it advertises, over ANY model
// and grid, however the grid is split into chunks — the contract that
// lets sweep::PanelSweep schedule a panel as contiguous chunks through
// the batched kernels without changing a single output bit. The
// reference is the per-point path spelled out here: solve_panel_point off
// the backend on a shared axis, off a rebind over apply_parameter'd
// params elsewhere. Grids reach the infeasible region, so the min-ρ
// fallback (and its absence) is covered on model axes as well as on ρ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "support/proptest.hpp"
#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

/// One generated case: a backend-selecting scenario, the axis to sweep
/// (an index into the backend's advertised axes), unit draws the body
/// maps onto that axis's range, and where the grid splits in two chunks.
struct BatchCase {
  ScenarioSpec spec;
  std::size_t axis_index = 0;
  std::vector<double> units;  ///< each in [0, 1)
  std::size_t split = 0;      ///< in [0, units.size()]
};

/// A grid value for `axis` from a unit draw, spanning the region where
/// the bound stops being achievable: ρ down to 1.02 (below most pairs'
/// ρ_min), C and V up to 6000 s, λ up to 3·10⁻², and exact zeros.
double axis_value(core::SweepAxis axis, double u, unsigned max_segments) {
  switch (axis) {
    case core::SweepAxis::kPerformanceBound:
      return 1.02 + 20.0 * u * u * u;
    case core::SweepAxis::kCheckpointTime:
    case core::SweepAxis::kVerificationTime:
      return u < 0.05 ? 0.0 : 6000.0 * u * u;
    case core::SweepAxis::kErrorRate:
      return std::pow(10.0, -7.0 + 5.5 * u);
    case core::SweepAxis::kIdlePower:
    case core::SweepAxis::kIoPower:
      return u < 0.05 ? 0.0 : 5000.0 * u;
    case core::SweepAxis::kSegments:
      return 1.0 + std::floor(u * static_cast<double>(max_segments));
  }
  return 0.0;
}

struct BatchCaseGen {
  using Value = BatchCase;
  proptest::ScenarioSpecGen spec_gen;

  BatchCase operator()(proptest::Rng& rng) const {
    BatchCase c;
    c.spec = spec_gen(rng);
    c.axis_index = static_cast<std::size_t>(rng.next_u64() % 64);
    c.units.resize(1 + rng.index(24));
    for (double& u : c.units) u = rng.uniform();
    c.split = rng.index(c.units.size() + 1);
    return c;
  }
  std::vector<BatchCase> shrink(const BatchCase& value) const {
    std::vector<BatchCase> out;
    for (const auto& spec : spec_gen.shrink(value.spec)) {
      BatchCase candidate = value;
      candidate.spec = spec;
      out.push_back(candidate);
    }
    if (value.units.size() > 1) {
      // Halve the grid: a failing point survives in one half.
      const std::size_t mid = value.units.size() / 2;
      for (const auto& half :
           {std::vector<double>(value.units.begin(),
                                value.units.begin() + mid),
            std::vector<double>(value.units.begin() + mid,
                                value.units.end())}) {
        BatchCase candidate = value;
        candidate.units = half;
        candidate.split = std::min(value.split, half.size());
        out.push_back(candidate);
      }
    }
    if (value.split != 0) {
      BatchCase candidate = value;
      candidate.split = 0;
      out.push_back(candidate);
    }
    return out;
  }
  std::string describe(const BatchCase& value) const {
    std::ostringstream out;
    out << spec_gen.describe(value.spec) << " | axis#" << value.axis_index
        << " split " << value.split << " units {";
    for (std::size_t i = 0; i < value.units.size(); ++i) {
      out << (i > 0 ? ", " : "") << value.units[i];
    }
    out << "}";
    return out.str();
  }
};

/// Points that exercised the min-ρ fallback (or found nothing feasible),
/// per axis kind — so the suite can show its grids reach that region.
struct Coverage {
  std::size_t rho_fallbacks = 0;
  std::size_t model_fallbacks = 0;
  std::size_t infeasible = 0;
};

TEST(PropBatchBitIdentity, ChunkedBatchEqualsPerPointReference) {
  proptest::PropOptions options;
  options.iterations = 60;
  Coverage coverage;
  proptest::check(
      "solve_batch over [0,a) + [a,n) == per-point reference, bit for bit",
      BatchCaseGen{},
      [&coverage](const BatchCase& c) {
        auto backend = make_backend(c.spec);
        backend->prepare();
        const core::BackendCapabilities& caps = backend->capabilities();
        const core::SweepAxis axis =
            caps.axes[c.axis_index % caps.axes.size()];
        const std::size_t n = c.units.size();
        std::vector<double> xs(n);
        for (std::size_t i = 0; i < n; ++i) {
          xs[i] = axis_value(axis, c.units[i], caps.max_segments);
        }
        const double panel_rho = c.spec.rho;
        const bool fallback = c.spec.min_rho_fallback;
        std::vector<core::PanelPoint> batched(n);
        backend->solve_batch(axis, xs.data(), c.split, panel_rho, fallback,
                             batched.data());
        backend->solve_batch(axis, xs.data() + c.split, n - c.split,
                             panel_rho, fallback,
                             batched.data() + c.split);
        const bool shared = caps.shares_panel_solver(axis);
        for (std::size_t i = 0; i < n; ++i) {
          SCOPED_TRACE(std::string(core::to_string(axis)) + "[" +
                       std::to_string(i) + "]");
          core::PanelPoint reference;
          if (shared) {
            reference =
                backend->solve_panel_point(axis, xs[i], panel_rho, fallback);
          } else {
            const auto point = backend->rebind(
                core::apply_parameter(backend->params(), axis, xs[i]));
            point->prepare();
            reference =
                point->solve_panel_point(axis, xs[i], panel_rho, fallback);
          }
          EXPECT_EQ(batched[i].x, reference.x);
          test::expect_identical_solution(batched[i].primary,
                                          reference.primary);
          test::expect_identical_solution(batched[i].baseline,
                                          reference.baseline);
          if (reference.primary.used_fallback) {
            ++(axis == core::SweepAxis::kPerformanceBound
                   ? coverage.rho_fallbacks
                   : coverage.model_fallbacks);
          } else if (!reference.primary.feasible()) {
            ++coverage.infeasible;
          }
        }
      },
      options);
  // The generator is meant to reach the fallback region on both kinds of
  // axis; a full-size run that never gets there tests less than it says.
  if (proptest::resolved_iterations(options) >= options.iterations) {
    EXPECT_GT(coverage.rho_fallbacks, 0u);
    EXPECT_GT(coverage.model_fallbacks, 0u);
    EXPECT_GT(coverage.infeasible, 0u);
  }
}

}  // namespace
}  // namespace rexspeed::engine
