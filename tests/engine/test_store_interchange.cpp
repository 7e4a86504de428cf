// Store interchange between the engine drivers: SweepEngine, the
// in-process CampaignRunner and a shard worker all plan and store through
// one plan-and-cache step, so an entry any of them writes is a verified
// hit for the others, and the entries they write are byte-identical —
// blobs and sidecars alike, except the measured CostPerPoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/shard/shard_coordinator.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "rexspeed/store/result_store.hpp"
#include "rexspeed/store/serialize.hpp"
#include "support/result_identity.hpp"

namespace rexspeed::engine {
namespace {

namespace fs = std::filesystem;

/// Panel scenarios every driver can run: a first-order model-axis panel,
/// a composite, an exact-opt ρ panel and an interleaved segments panel.
std::vector<ScenarioSpec> panel_specs() {
  std::vector<ScenarioSpec> specs;
  for (const char* name :
       {"fig02", "fig08", "exact_rho", "interleaved_segments"}) {
    ScenarioSpec spec = scenario_by_name(name);
    spec.points = 4;
    specs.push_back(spec);
  }
  return specs;
}

/// The panels plus a bound solve (campaign and shard drivers only —
/// SweepEngine has no panel-free entry point).
std::vector<ScenarioSpec> campaign_specs() {
  std::vector<ScenarioSpec> specs = panel_specs();
  ScenarioSpec solve;
  solve.name = "interchange_solve";
  solve.configuration = "Hera/XScale";
  solve.rho = 3.0;
  specs.push_back(solve);
  return specs;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Every entry file of a cache directory (name → bytes), with the
/// sidecars' CostPerPoint line dropped: the measured cost is the one
/// field allowed to differ between drivers.
std::map<std::string, std::string> entries_of(const fs::path& dir) {
  std::map<std::string, std::string> entries;
  for (const auto& file : fs::directory_iterator(dir / "entries")) {
    std::string bytes = read_file(file.path());
    if (file.path().extension() == ".info") {
      std::istringstream lines(bytes);
      std::string line;
      bytes.clear();
      while (std::getline(lines, line)) {
        if (line.rfind("CostPerPoint: ", 0) != 0) bytes += line + '\n';
      }
    }
    entries[file.path().filename().string()] = std::move(bytes);
  }
  return entries;
}

/// The cost-table keys a driver recorded.
std::vector<std::string> cost_keys_of(const fs::path& dir) {
  std::vector<std::string> keys;
  for (const auto& file : fs::directory_iterator(dir / "costs")) {
    keys.push_back(file.path().filename().string());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string sweep_fingerprint(const std::vector<ScenarioSpec>& specs,
                              store::ResultStore* cache) {
  const SweepEngine engine({.threads = 2, .store = cache});
  std::string bytes;
  for (const ScenarioSpec& spec : specs) {
    for (const sweep::PanelSeries& panel : engine.run_scenario(spec)) {
      bytes += store::serialize_panel_series(panel);
    }
  }
  return bytes;
}

std::string campaign_fingerprint(const std::vector<ScenarioResult>& results) {
  std::string bytes;
  for (const ScenarioResult& result : results) {
    for (const sweep::PanelSeries& panel : result.panels) {
      bytes += store::serialize_panel_series(panel);
    }
    if (result.spec.kind() == ScenarioKind::kSolve) {
      bytes += store::serialize_solution(result.solution);
    }
  }
  return bytes;
}

class StoreInterchangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("rexspeed_store_interchange_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Fills one cache directory per driver from the same scenarios.
  void write_all() {
    {
      store::LocalResultStore cache(sweep_dir());
      (void)sweep_fingerprint(panel_specs(), &cache);
    }
    {
      store::LocalResultStore cache(campaign_dir());
      const CampaignRunner runner({.threads = 1, .store = &cache});
      (void)runner.run(campaign_specs());
    }
    shard::ShardOptions options;
    options.workers = 2;
    options.cache_spec = shard_dir().string();
    shard::ShardCoordinator coordinator(options);
    (void)coordinator.run(campaign_specs());
    ASSERT_EQ(coordinator.report().completed_by_workers,
              coordinator.report().tasks);
  }

  /// A scratch copy of `dir` for one reader, so readers never see each
  /// other's writes.
  fs::path copy_for_reader(const fs::path& dir, const std::string& reader) {
    const fs::path copy = root_ / (dir.filename().string() + "_" + reader);
    fs::copy(dir, copy, fs::copy_options::recursive);
    return copy;
  }

  fs::path sweep_dir() const { return root_ / "sweep"; }
  fs::path campaign_dir() const { return root_ / "campaign"; }
  fs::path shard_dir() const { return root_ / "shard"; }

  fs::path root_;
};

TEST_F(StoreInterchangeTest, DriversWriteIdenticalEntries) {
  write_all();
  const std::map<std::string, std::string> sweep = entries_of(sweep_dir());
  const std::map<std::string, std::string> campaign =
      entries_of(campaign_dir());
  const std::map<std::string, std::string> shard = entries_of(shard_dir());

  EXPECT_EQ(campaign, shard);
  // The sweep wrote every panel entry, and only those: the campaign's
  // extra pair of files is its solve.
  EXPECT_EQ(sweep.size() + 2, campaign.size());
  for (const auto& [name, bytes] : sweep) {
    SCOPED_TRACE(name);
    const auto match = campaign.find(name);
    ASSERT_NE(match, campaign.end());
    EXPECT_EQ(bytes, match->second);
  }
  // Every driver measured its panels and fed the same cost-table keys.
  EXPECT_FALSE(cost_keys_of(sweep_dir()).empty());
  EXPECT_EQ(cost_keys_of(sweep_dir()), cost_keys_of(campaign_dir()));
  EXPECT_EQ(cost_keys_of(campaign_dir()), cost_keys_of(shard_dir()));
}

TEST_F(StoreInterchangeTest, EveryDriverHitsEveryOthersEntries) {
  write_all();
  const std::vector<ScenarioSpec> panels = panel_specs();
  const std::vector<ScenarioSpec> specs = campaign_specs();
  const std::string expected_all =
      campaign_fingerprint(test::serial_reference(specs));
  const std::string expected_panels =
      campaign_fingerprint(test::serial_reference(panels));

  for (const fs::path& writer : {sweep_dir(), campaign_dir(), shard_dir()}) {
    SCOPED_TRACE("written by " + writer.filename().string());
    const bool has_solve = writer != sweep_dir();
    const std::vector<ScenarioSpec>& readable = has_solve ? specs : panels;
    const std::string& expected = has_solve ? expected_all : expected_panels;

    if (writer != sweep_dir()) {
      store::LocalResultStore cache(copy_for_reader(writer, "sweep"));
      const store::StoreStats before = cache.stats();
      EXPECT_EQ(sweep_fingerprint(panels, &cache), expected_panels);
      const store::StoreStats after = cache.stats();
      EXPECT_EQ(after.misses, before.misses);
      EXPECT_EQ(after.stores, before.stores);
      EXPECT_GT(after.hits, before.hits);
    }
    if (writer != campaign_dir()) {
      store::LocalResultStore cache(copy_for_reader(writer, "campaign"));
      const store::StoreStats before = cache.stats();
      const CampaignRunner runner({.threads = 1, .store = &cache});
      EXPECT_EQ(campaign_fingerprint(runner.run(readable)), expected);
      const store::StoreStats after = cache.stats();
      EXPECT_EQ(after.misses, before.misses);
      EXPECT_EQ(after.stores, before.stores);
      EXPECT_GT(after.hits, before.hits);
    }
    if (writer != shard_dir()) {
      shard::ShardOptions options;
      options.workers = 2;
      options.cache_spec = copy_for_reader(writer, "shard").string();
      shard::ShardCoordinator coordinator(options);
      EXPECT_EQ(campaign_fingerprint(coordinator.run(readable)), expected);
      EXPECT_EQ(coordinator.report().tasks, 0u);
      EXPECT_GT(coordinator.report().cache_hits, 0u);
      EXPECT_EQ(coordinator.report().workers_spawned, 0u);
    }
  }
}

}  // namespace
}  // namespace rexspeed::engine
