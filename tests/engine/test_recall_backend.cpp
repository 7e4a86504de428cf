// Pinned acceptance regression for the recall mode: at full recall
// (verification_recall = 1) the recall backend must be BIT-identical to
// the first-order mode on every registered scenario — scaling the silent
// rate by 1.0 is exact in floating point, so any divergence is a real
// wiring bug (double scaling, wrong params() in a rebind, a forked solve
// path). The randomized generalization lives in
// tests/properties/prop_recall_identity.cpp; this suite pins the claim to
// the registered workloads and to one full campaign run.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

using test::expect_identical_panel;
using test::expect_identical_solution;

/// The registered spec re-expressed as mode=recall at r = 1. Segment
/// configurations are dropped: recall is a speed-pair mode (the registry
/// rejects the combination), but the scenario's configuration, overrides
/// and bound still make it a distinct workload worth pinning.
ScenarioSpec recall_twin_of(const ScenarioSpec& registered) {
  ScenarioSpec twin = registered;
  twin.segments = 0;
  twin.max_segments = 0;
  twin.max_segments_defaulted = false;
  if (twin.sweep_parameter == sweep::SweepParameter::kSegments) {
    // The segments axis only exists for the interleaved mode; the pair
    // twins sweep the bound instead.
    twin.sweep_parameter = sweep::SweepParameter::kPerformanceBound;
  }
  twin.recall_mode = true;
  twin.verification_recall = 1.0;
  twin.mode = core::EvalMode::kFirstOrder;
  return twin;
}

TEST(RecallBackendPinned, FullRecallMatchesFirstOrderOnEveryScenario) {
  for (const ScenarioSpec& registered : scenario_registry()) {
    SCOPED_TRACE(registered.name);
    const ScenarioSpec recall_spec = recall_twin_of(registered);
    ScenarioSpec reference_spec = recall_spec;
    reference_spec.recall_mode = false;

    ASSERT_EQ(backend_mode_name(recall_spec), "recall");
    ASSERT_EQ(backend_mode_name(reference_spec), "first-order");

    const core::ModelParams params = registered.resolve_params();
    const auto recall_backend = make_backend(recall_spec, params);
    const auto reference = make_backend(reference_spec, params);
    recall_backend->prepare();
    reference->prepare();

    for (const core::SpeedPolicy policy :
         {core::SpeedPolicy::kTwoSpeed, core::SpeedPolicy::kSingleSpeed}) {
      expect_identical_solution(
          recall_backend->solve(registered.rho, policy,
                                registered.min_rho_fallback),
          reference->solve(registered.rho, policy,
                           registered.min_rho_fallback));
      expect_identical_solution(recall_backend->min_rho(policy),
                                reference->min_rho(policy));
    }
    expect_identical_solution(
        recall_backend->solve_baseline(registered.rho,
                                       registered.min_rho_fallback),
        reference->solve_baseline(registered.rho,
                                  registered.min_rho_fallback));

    // The scenario's own ρ panel grid through the batched sweep path.
    const std::size_t points = std::min<std::size_t>(registered.points, 9);
    std::vector<double> rhos(points);
    for (std::size_t i = 0; i < points; ++i) {
      const double t = points > 1
                           ? static_cast<double>(i) /
                                 static_cast<double>(points - 1)
                           : 0.0;
      rhos[i] = 1.05 + t * (2.0 * registered.rho - 1.05);
    }
    std::vector<core::PanelPoint> via_recall(points);
    std::vector<core::PanelPoint> via_reference(points);
    recall_backend->solve_batch(core::SweepAxis::kPerformanceBound,
                                rhos.data(), points, registered.rho,
                                registered.min_rho_fallback,
                                via_recall.data());
    reference->solve_batch(core::SweepAxis::kPerformanceBound, rhos.data(),
                           points, registered.rho,
                           registered.min_rho_fallback,
                           via_reference.data());
    for (std::size_t i = 0; i < points; ++i) {
      SCOPED_TRACE("rho grid point " + std::to_string(i));
      expect_identical_solution(via_recall[i].primary,
                                via_reference[i].primary);
      expect_identical_solution(via_recall[i].baseline,
                                via_reference[i].baseline);
    }
  }
}

TEST(RecallBackendPinned, FullRecallCampaignMatchesFirstOrderPanels) {
  // End to end through the campaign runner: the recall_rho scenario at
  // r = 1 must produce the same panels, point for point, as its
  // first-order twin.
  ScenarioSpec recall_spec = recall_twin_of(scenario_by_name("recall_rho"));
  ScenarioSpec reference_spec = recall_spec;
  reference_spec.recall_mode = false;

  const CampaignRunnerOptions options{.threads = 2};
  const ScenarioResult via_recall =
      CampaignRunner(options).run_one(recall_spec);
  const ScenarioResult via_reference =
      CampaignRunner(options).run_one(reference_spec);
  ASSERT_EQ(via_recall.panels.size(), via_reference.panels.size());
  ASSERT_FALSE(via_recall.panels.empty());
  for (std::size_t i = 0; i < via_recall.panels.size(); ++i) {
    SCOPED_TRACE("panel " + std::to_string(i));
    expect_identical_panel(via_recall.panels[i], via_reference.panels[i]);
  }
}

}  // namespace
}  // namespace rexspeed::engine
