// Fault injection against the shard coordinator: SIGKILL a worker
// mid-panel, close the result pipe mid-frame, exit nonzero before doing
// any work, kill the whole fleet. Every case must (a) requeue the lost
// work transparently, (b) complete the campaign, (c) report the
// incident with the worker's real exit status, and (d) produce results
// byte-identical to a serial in-process run — crash recovery is not
// allowed to cost a single bit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/shard/shard_coordinator.hpp"
#include "support/result_identity.hpp"

namespace rexspeed::engine::shard {
namespace {

/// A handful of registry scenarios at a small grid — enough tasks that
/// the fleet keeps working after the victim dies.
std::vector<ScenarioSpec> fault_batch() {
  std::vector<ScenarioSpec> specs = scenario_registry();
  specs.resize(5);
  for (ScenarioSpec& spec : specs) spec.points = 3;
  return specs;
}

bool any_incident_contains(const ShardReport& report,
                           const std::string& needle) {
  for (const ShardIncident& incident : report.incidents) {
    if (incident.detail.find(needle) != std::string::npos) return true;
  }
  return false;
}

ShardOptions shard_options(unsigned workers,
                           std::vector<WorkerFault> faults) {
  ShardOptions options;
  options.workers = workers;
  options.faults = std::move(faults);
  return options;
}

WorkerFault fault(WorkerFault::Kind kind, unsigned worker,
                  unsigned nth = 1) {
  WorkerFault injected;
  injected.kind = kind;
  injected.worker = worker;
  injected.nth = nth;
  return injected;
}

TEST(ShardFaults, SigkillMidPanelRequeuesAndStaysByteIdentical) {
  const std::vector<ScenarioSpec> specs = fault_batch();
  const std::vector<ScenarioResult> expected = test::serial_reference(specs);
  ShardCoordinator coordinator(
      shard_options(2, {fault(WorkerFault::Kind::kKillMidPanel, 0)}));
  // The victim computes its first panel, then SIGKILLs itself before
  // reporting — the finished work is simply gone and must be redone.
  test::expect_identical_results(coordinator.run(specs), expected);
  const ShardReport& report = coordinator.report();
  EXPECT_GE(report.worker_deaths, 1u);
  EXPECT_GE(report.requeued, 1u);
  EXPECT_TRUE(any_incident_contains(report, "killed by signal 9"))
      << "incident must carry the worker's real exit status";
  EXPECT_EQ(report.completed_by_workers + report.completed_in_process,
            report.tasks);
}

TEST(ShardFaults, PipeClosedMidFrameIsDetectedAndRequeued) {
  const std::vector<ScenarioSpec> specs = fault_batch();
  const std::vector<ScenarioResult> expected = test::serial_reference(specs);
  ShardCoordinator coordinator(
      shard_options(2, {fault(WorkerFault::Kind::kTruncateResult, 0)}));
  // Half a result frame then EOF: the decoder must treat the truncated
  // stream as a dead worker — a partial frame never surfaces as data.
  test::expect_identical_results(coordinator.run(specs), expected);
  const ShardReport& report = coordinator.report();
  EXPECT_GE(report.worker_deaths, 1u);
  EXPECT_GE(report.requeued, 1u);
  EXPECT_TRUE(any_incident_contains(report, "mid-frame"));
}

TEST(ShardFaults, NonzeroExitIsReportedWithItsCode) {
  const std::vector<ScenarioSpec> specs = fault_batch();
  const std::vector<ScenarioResult> expected = test::serial_reference(specs);
  WorkerFault injected = fault(WorkerFault::Kind::kExitAtStart, 0);
  injected.exit_code = 3;
  ShardCoordinator coordinator(shard_options(2, {injected}));
  test::expect_identical_results(coordinator.run(specs), expected);
  const ShardReport& report = coordinator.report();
  EXPECT_GE(report.worker_deaths, 1u);
  EXPECT_TRUE(any_incident_contains(report, "exited with code 3"));
  EXPECT_EQ(report.completed_by_workers + report.completed_in_process,
            report.tasks);
}

TEST(ShardFaults, WholeFleetDeadFallsBackInProcess) {
  const std::vector<ScenarioSpec> specs = fault_batch();
  const std::vector<ScenarioResult> expected = test::serial_reference(specs);
  ShardCoordinator coordinator(
      shard_options(2, {fault(WorkerFault::Kind::kExitAtStart, 0),
                        fault(WorkerFault::Kind::kExitAtStart, 1)}));
  // Both workers die before serving anything: the coordinator must
  // finish the entire campaign itself, byte-identically.
  test::expect_identical_results(coordinator.run(specs), expected);
  const ShardReport& report = coordinator.report();
  EXPECT_EQ(report.worker_deaths, 2u);
  EXPECT_EQ(report.completed_by_workers, 0u);
  EXPECT_EQ(report.completed_in_process, report.tasks);
}

TEST(ShardFaults, SingleWorkerDeathStillCompletesTheCampaign) {
  const std::vector<ScenarioSpec> specs = fault_batch();
  const std::vector<ScenarioResult> expected = test::serial_reference(specs);
  ShardCoordinator coordinator(
      shard_options(1, {fault(WorkerFault::Kind::kKillMidPanel, 0)}));
  // workers=1 and the only worker dies: everything after the crash runs
  // in-process.
  test::expect_identical_results(coordinator.run(specs), expected);
  const ShardReport& report = coordinator.report();
  EXPECT_EQ(report.worker_deaths, 1u);
  EXPECT_GE(report.completed_in_process, 1u);
  EXPECT_EQ(report.completed_by_workers + report.completed_in_process,
            report.tasks);
}

TEST(ShardFaults, LaterVictimDiesAfterServingEarlierTasks) {
  const std::vector<ScenarioSpec> specs = fault_batch();
  const std::vector<ScenarioResult> expected = test::serial_reference(specs);
  // Each worker completes its first assignment normally and dies on its
  // second — mixing served results and lost work in one worker. Arming
  // both workers makes that certain: the first round hands out two of the
  // batch's tasks, so whichever worker reports first takes a second one
  // and dies, and the survivor then takes the requeued task (or another)
  // as its second and dies too. Work stealing decides only the order.
  ShardCoordinator coordinator(
      shard_options(2, {fault(WorkerFault::Kind::kKillMidPanel, 0, 2),
                        fault(WorkerFault::Kind::kKillMidPanel, 1, 2)}));
  test::expect_identical_results(coordinator.run(specs), expected);
  const ShardReport& report = coordinator.report();
  ASSERT_GE(report.tasks, 3u);
  EXPECT_EQ(report.worker_deaths, 2u);
  EXPECT_EQ(report.completed_by_workers, 2u)
      << "each victim's first result must be served before it dies";
  EXPECT_EQ(report.requeued, 2u);
  EXPECT_TRUE(any_incident_contains(report, "killed by signal 9"));
  EXPECT_EQ(report.completed_in_process, report.tasks - 2);
}

}  // namespace
}  // namespace rexspeed::engine::shard
