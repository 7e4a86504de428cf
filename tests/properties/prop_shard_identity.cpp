// Property: a sharded campaign equals the serial in-process
// CampaignRunner BIT FOR BIT — for ANY small scenario batch, ANY worker
// count in 1..8, and ANY injected worker death (exit-at-start, SIGKILL
// mid-panel, result pipe truncated mid-frame). Crash recovery and
// scheduling freedom are pure transport concerns; they may never cost a
// bit of the answer.
//
// Cases are deliberately tiny (1–2 scenarios, 2–4 grid points): the CI
// property leg runs every property at REXSPEED_PROP_ITERS=1000, and each
// case here forks a fleet and runs two full campaigns.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "rexspeed/engine/shard/shard_coordinator.hpp"
#include "support/proptest.hpp"
#include "support/result_identity.hpp"

namespace rexspeed::engine::shard {
namespace {

struct ShardCase {
  std::vector<ScenarioSpec> specs;
  unsigned workers = 1;
  std::vector<WorkerFault> faults;
};

struct ShardCaseGen {
  using Value = ShardCase;
  proptest::ScenarioSpecGen spec_gen;

  ShardCase operator()(proptest::Rng& rng) const {
    ShardCase value;
    const std::size_t count = 1 + rng.index(2);
    for (std::size_t i = 0; i < count; ++i) {
      ScenarioSpec spec = spec_gen(rng);
      spec.name = "prop_case_" + std::to_string(i);
      spec.points = 2 + rng.index(3);
      value.specs.push_back(std::move(spec));
    }
    value.workers = static_cast<unsigned>(1 + rng.index(8));
    if (rng.chance(0.5)) {
      WorkerFault fault;
      switch (rng.index(3)) {
        case 0:
          fault.kind = WorkerFault::Kind::kExitAtStart;
          break;
        case 1:
          fault.kind = WorkerFault::Kind::kKillMidPanel;
          break;
        default:
          fault.kind = WorkerFault::Kind::kTruncateResult;
          break;
      }
      fault.worker = static_cast<unsigned>(rng.index(value.workers));
      fault.nth = static_cast<unsigned>(1 + rng.index(2));
      value.faults.push_back(fault);
    }
    return value;
  }

  std::vector<ShardCase> shrink(const ShardCase& value) const {
    std::vector<ShardCase> out;
    if (value.specs.size() > 1) {
      for (std::size_t drop = 0; drop < value.specs.size(); ++drop) {
        ShardCase smaller = value;
        smaller.specs.erase(smaller.specs.begin() +
                            static_cast<std::ptrdiff_t>(drop));
        out.push_back(std::move(smaller));
      }
    }
    if (!value.faults.empty()) {
      ShardCase no_faults = value;
      no_faults.faults.clear();
      out.push_back(std::move(no_faults));
    }
    if (value.workers > 1) {
      ShardCase fewer = value;
      fewer.workers = 1;
      out.push_back(std::move(fewer));
    }
    for (std::size_t i = 0; i < value.specs.size(); ++i) {
      for (ScenarioSpec& shrunk : spec_gen.shrink(value.specs[i])) {
        ShardCase smaller = value;
        shrunk.name = value.specs[i].name;
        shrunk.points = value.specs[i].points;
        smaller.specs[i] = std::move(shrunk);
        out.push_back(std::move(smaller));
      }
    }
    return out;
  }

  std::string describe(const ShardCase& value) const {
    std::string text = std::to_string(value.specs.size()) +
                       " scenario(s), workers=" +
                       std::to_string(value.workers);
    if (!value.faults.empty()) {
      const WorkerFault& fault = value.faults.front();
      const char* kind = "none";
      switch (fault.kind) {
        case WorkerFault::Kind::kExitAtStart:
          kind = "exit-at-start";
          break;
        case WorkerFault::Kind::kKillMidPanel:
          kind = "sigkill-mid-panel";
          break;
        case WorkerFault::Kind::kTruncateResult:
          kind = "truncate-result";
          break;
        case WorkerFault::Kind::kNone:
          break;
      }
      text += std::string(", fault=") + kind + " on worker " +
              std::to_string(fault.worker) + " nth=" +
              std::to_string(fault.nth);
    }
    for (const ScenarioSpec& spec : value.specs) {
      text += "\n  " + spec_gen.describe(spec);
    }
    return text;
  }
};

TEST(PropShardIdentity, ShardedCampaignEqualsSerialBitForBit) {
  proptest::PropOptions options;
  options.iterations = 40;  // each case forks a fleet + two campaigns
  proptest::check(
      "shard(specs, workers, faults) == serial CampaignRunner, bit for bit",
      ShardCaseGen{},
      [](const ShardCase& value) {
        // Serial reference first, scoped: its pool thread must be gone
        // before the coordinator forks.
        const std::vector<ScenarioResult> expected =
            test::serial_reference(value.specs);
        ShardOptions options;
        options.workers = value.workers;
        options.faults = value.faults;
        ShardCoordinator coordinator(options);
        const std::vector<ScenarioResult> actual =
            coordinator.run(value.specs);
        test::expect_identical_results(actual, expected);
        const ShardReport& report = coordinator.report();
        EXPECT_EQ(report.completed_by_workers + report.completed_in_process +
                      report.cache_hits,
                  report.tasks + report.cache_hits);
        if (value.faults.empty()) {
          EXPECT_EQ(report.worker_deaths, 0u);
          EXPECT_TRUE(report.incidents.empty());
        }
      },
      options);
}

}  // namespace
}  // namespace rexspeed::engine::shard
