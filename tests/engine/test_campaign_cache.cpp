// The campaign ↔ result-store contract: a warm campaign is bit-identical
// to a cold one (verified fetches replace planning/prepare/solves), a
// corrupt entry is a transparent recompute that heals the store, a
// partially-warm cache never leaks between scenarios, cache=0 scenarios
// are never stored, and cost seeding reorders work without changing any
// byte of the results. A store mixing hits, misses, a corrupt entry and a
// wrong-shape entry is fetched across the pool at any thread count with
// exact counters, and heals. A cache write that fails costs an incident,
// never the campaign; a cache of canonical (format 1) entries reads as
// corrupt, heals into entries on the first run and is all hits after.

#include "rexspeed/engine/campaign_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "rexspeed/engine/panel_job.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/result_store.hpp"
#include "rexspeed/store/serialize.hpp"

namespace rexspeed::engine {
namespace {

namespace fs = std::filesystem;

/// A small mixed campaign: a first-order ρ panel, an exact-opt C panel
/// (heavy prepare — the interesting cache-hit case), and a bound solve.
std::vector<ScenarioSpec> make_campaign() {
  std::vector<ScenarioSpec> specs;

  ScenarioSpec rho_panel;
  rho_panel.name = "cache_rho";
  rho_panel.configuration = "Hera/XScale";
  rho_panel.points = 9;
  rho_panel.sweep_parameter = sweep::SweepParameter::kPerformanceBound;
  specs.push_back(rho_panel);

  ScenarioSpec exact_panel;
  exact_panel.name = "cache_exact";
  exact_panel.configuration = "Atlas/Crusoe";
  exact_panel.points = 7;
  exact_panel.mode = core::EvalMode::kExactOptimize;
  exact_panel.sweep_parameter = sweep::SweepParameter::kCheckpointTime;
  specs.push_back(exact_panel);

  ScenarioSpec solve;
  solve.name = "cache_solve";
  solve.configuration = "Hera/XScale";
  solve.rho = 3.0;
  specs.push_back(solve);

  return specs;
}

/// Serializes every result byte that the store contract promises to
/// preserve — panel blobs and solve blobs alike.
std::string fingerprint(const std::vector<ScenarioResult>& results) {
  std::string bytes;
  for (const auto& result : results) {
    for (const auto& panel : result.panels) {
      bytes += store::serialize_panel_series(panel);
    }
    if (result.spec.kind() == ScenarioKind::kSolve) {
      bytes += store::serialize_solution(result.solution);
    }
  }
  return bytes;
}

class CampaignCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rexspeed_campaign_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs the campaign against a fresh store handle on dir_; reports the
  /// handle's session stats through `out_stats` when non-null.
  std::vector<ScenarioResult> run_cached(
      const std::vector<ScenarioSpec>& specs,
      store::StoreStats* out_stats = nullptr) {
    store::LocalResultStore cache(dir_);
    const CampaignRunner runner({.threads = 1, .store = &cache});
    auto results = runner.run(specs);
    if (out_stats != nullptr) *out_stats = cache.stats();
    return results;
  }

  fs::path dir_;
};

TEST_F(CampaignCacheTest, WarmCampaignIsBitIdenticalToCold) {
  const auto specs = make_campaign();

  store::StoreStats cold_stats;
  const std::string cold = fingerprint(run_cached(specs, &cold_stats));
  EXPECT_EQ(cold_stats.hits, 0u);
  EXPECT_GT(cold_stats.stores, 0u);

  store::StoreStats warm_stats;
  const std::string warm = fingerprint(run_cached(specs, &warm_stats));
  EXPECT_EQ(warm, cold);
  EXPECT_GT(warm_stats.hits, 0u);
  // Cumulative counters: the warm run added hits but no new stores.
  EXPECT_EQ(warm_stats.stores, cold_stats.stores);

  // And both equal the uncached baseline — caching must be invisible.
  const CampaignRunner uncached({.threads = 1});
  EXPECT_EQ(fingerprint(uncached.run(specs)), cold);
}

TEST_F(CampaignCacheTest, CorruptEntryIsRecomputedAndHealed) {
  const auto specs = make_campaign();
  const std::string cold = fingerprint(run_cached(specs));

  // Damage every stored entry: the warm run must detect each corruption,
  // recompute, still produce identical bytes, and heal the store.
  for (const auto& file : fs::directory_iterator(dir_ / "entries")) {
    if (file.path().extension() != ".bin") continue;
    std::fstream blob(file.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    blob.seekp(0);
    blob.put('X');
  }

  store::StoreStats stats;
  EXPECT_EQ(fingerprint(run_cached(specs, &stats)), cold);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GT(stats.corrupt, 0u);

  // Healed: the next run is all hits and verify is clean.
  store::StoreStats healed;
  EXPECT_EQ(fingerprint(run_cached(specs, &healed)), cold);
  EXPECT_GT(healed.hits, 0u);
  store::LocalResultStore cache(dir_);
  EXPECT_TRUE(cache.verify().empty());
}

TEST_F(CampaignCacheTest, PartiallyWarmCampaignMatchesStandaloneRuns) {
  const auto specs = make_campaign();

  // Pre-cache only the first scenario, then run the whole campaign: the
  // cached panel must not bleed into the cold ones, and every result must
  // equal its standalone uncached run.
  {
    store::LocalResultStore cache(dir_);
    const CampaignRunner seeder({.threads = 1, .store = &cache});
    (void)seeder.run_one(specs.front());
  }

  store::StoreStats stats;
  const auto mixed = run_cached(specs, &stats);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);

  const CampaignRunner uncached({.threads = 1});
  ASSERT_EQ(mixed.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(fingerprint({mixed[i]}),
              fingerprint({uncached.run_one(specs[i])}))
        << "scenario " << specs[i].name;
  }
}

TEST_F(CampaignCacheTest, CacheOptOutScenarioIsNeverStored) {
  auto specs = make_campaign();
  for (auto& spec : specs) spec.cache = false;

  store::StoreStats stats;
  const std::string first = fingerprint(run_cached(specs, &stats));
  EXPECT_EQ(stats.stores, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // Opting out changes persistence, never results.
  const CampaignRunner uncached({.threads = 1});
  EXPECT_EQ(fingerprint(uncached.run(specs)), first);
}

TEST_F(CampaignCacheTest, CostSeedingReordersWithoutChangingResults) {
  const auto specs = make_campaign();
  const std::string cold = fingerprint(run_cached(specs));

  // Keep the measured cost table but drop every entry: the rerun seeds
  // its longest-first ordering from persisted costs (no timed probes)
  // while recomputing everything — results must not move by a byte.
  fs::remove_all(dir_ / "entries");
  store::StoreStats stats;
  EXPECT_EQ(fingerprint(run_cached(specs, &stats)), cold);
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(CampaignCacheTest, MixedStoreIsFetchedExactlyAtAnyThreadCount) {
  std::vector<ScenarioSpec> specs = make_campaign();  // rho, exact, solve
  ScenarioSpec lambda_panel = specs[0];
  lambda_panel.name = "mix_lambda";
  lambda_panel.points = 5;
  lambda_panel.sweep_parameter = sweep::SweepParameter::kErrorRate;
  specs.push_back(lambda_panel);
  ScenarioSpec wide_rho = specs[0];
  wide_rho.name = "mix_wide_rho";
  wide_rho.points = 11;
  specs.push_back(wide_rho);

  const std::string storeless =
      fingerprint(CampaignRunner({.threads = 1}).run(specs));
  const fs::path entries = dir_ / "entries";

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    fs::remove_all(dir_);
    (void)run_cached(specs);

    // The entries of the campaign's jobs, by scenario: planning keys a
    // job without touching the store.
    std::vector<std::string> keys;
    {
      store::LocalResultStore cache(dir_);
      for (const ScenarioSpec& spec : specs) {
        ScenarioJob job = plan_scenario(spec, &cache);
        keys.push_back(job.solve ? job.solve->key : job.panels.front().key);
      }
    }
    const auto file = [&](std::size_t scenario, const char* extension) {
      return entries / (keys[scenario] + extension);
    };
    // Scenario 0 (ρ, 9 points) and the solve stay hits. The λ panel
    // misses; the exact panel is corrupt; the 11-point ρ panel holds the
    // valid 9-point ρ panel, sidecar and all — a verified hit of the
    // wrong shape.
    fs::remove(file(3, ".bin"));
    fs::remove(file(3, ".info"));
    {
      std::fstream blob(file(1, ".bin"),
                        std::ios::in | std::ios::out | std::ios::binary);
      blob.seekp(20);
      blob.put('X');
    }
    fs::copy_file(file(0, ".bin"), file(4, ".bin"),
                  fs::copy_options::overwrite_existing);
    fs::copy_file(file(0, ".info"), file(4, ".info"),
                  fs::copy_options::overwrite_existing);

    store::StoreStats before;
    store::StoreStats after;
    std::vector<ScenarioResult> results;
    {
      store::LocalResultStore cache(dir_);
      before = cache.stats();
      results = CampaignRunner({.threads = threads, .store = &cache})
                    .run(specs);
      after = cache.stats();
    }
    EXPECT_EQ(fingerprint(results), storeless);
    EXPECT_EQ(after.hits - before.hits, 3u);  // ρ, solve, wrong shape
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.corrupt - before.corrupt, 1u);
    EXPECT_EQ(after.stores - before.stores, 3u);  // every recompute re-put

    // Healed: every job is now a hit of the right shape.
    store::StoreStats healed;
    EXPECT_EQ(fingerprint(run_cached(specs, &healed)), storeless);
    EXPECT_EQ(healed.hits - after.hits, static_cast<std::uint64_t>(
                                            specs.size()));
    EXPECT_EQ(healed.stores, after.stores);
    store::LocalResultStore cache(dir_);
    EXPECT_TRUE(cache.verify().empty());
  }
}

/// A tier whose every write fails, the way a full disk fails: put and
/// record_cost throw StoreError. Reads forward to a real store; put_many
/// is ResultStore's serial default.
class FailingWritesStore final : public store::ResultStore {
 public:
  explicit FailingWritesStore(store::ResultStore& inner) : inner_(inner) {}

  [[nodiscard]] const char* tier_name() const noexcept override {
    return "failing";
  }
  [[nodiscard]] std::optional<std::string> fetch(
      const std::string& key) override {
    return inner_.fetch(key);
  }
  void put(const std::string&, std::string_view, store::EntryInfo) override {
    ++attempts;
    throw store::StoreError("store: no space left on device");
  }
  [[nodiscard]] std::optional<store::EntryInfo> info(
      const std::string& key) override {
    return inner_.info(key);
  }
  [[nodiscard]] std::optional<double> lookup_cost(
      const std::string& cost_key) override {
    return inner_.lookup_cost(cost_key);
  }
  void record_cost(const std::string&, double) override {
    throw store::StoreError("store: no space left on device");
  }
  [[nodiscard]] store::StoreStats stats() override { return inner_.stats(); }
  [[nodiscard]] std::vector<std::string> verify() override {
    return inner_.verify();
  }
  std::size_t gc() override { return inner_.gc(); }
  void flush() override {
    throw store::StoreError("store: no space left on device");
  }

  std::size_t attempts = 0;

 private:
  store::ResultStore& inner_;
};

TEST_F(CampaignCacheTest, FailedCacheWritesAreIncidentsNotErrors) {
  const auto specs = make_campaign();
  const std::string storeless =
      fingerprint(CampaignRunner({.threads = 1}).run(specs));

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    store::LocalResultStore local(dir_);
    FailingWritesStore failing(local);
    const CampaignRunner runner({.threads = threads, .store = &failing});
    std::vector<ScenarioResult> results;
    ASSERT_NO_THROW(results = runner.run(specs));
    EXPECT_EQ(fingerprint(results), storeless);
    EXPECT_EQ(failing.attempts, specs.size());
    // One line for the entries, one for the counters.
    ASSERT_EQ(runner.incidents().size(), 2u);
    EXPECT_NE(runner.incidents()[0].find("3 of 3 entries not stored"),
              std::string::npos)
        << runner.incidents()[0];
    EXPECT_NE(runner.incidents()[0].find("no space left"), std::string::npos);
    EXPECT_NE(runner.incidents()[1].find("counters not saved"),
              std::string::npos);
  }
}

TEST_F(CampaignCacheTest, AnEntryTheLocalTierCannotWriteIsAnIncident) {
  const auto specs = make_campaign();
  const std::string storeless =
      fingerprint(CampaignRunner({.threads = 1}).run(specs));
  // A directory where the exact panel's entry goes: its write fails on
  // the pool, the other two are stored.
  std::string blocked;
  {
    store::LocalResultStore cache(dir_);
    blocked = plan_scenario(specs[1], &cache).panels.front().key;
  }
  fs::create_directories(dir_ / "entries" / (blocked + ".bin") / "occupied");

  store::LocalResultStore cache(dir_);
  const CampaignRunner runner({.threads = 4, .store = &cache});
  EXPECT_EQ(fingerprint(runner.run(specs)), storeless);
  ASSERT_EQ(runner.incidents().size(), 1u);
  EXPECT_EQ(runner.incidents()[0].rfind("cache: 1 of 3 entries not stored "
                                        "(first: " + blocked + ": ",
                                        0),
            0u)
      << runner.incidents()[0];
  EXPECT_EQ(cache.stats().stores, 2u);
  EXPECT_EQ(cache.stats().put_failures, 1u);
}

TEST_F(CampaignCacheTest, ACostTheLocalTierCannotRecordLeavesItsEntryStored) {
  const auto specs = make_campaign();
  const std::string storeless =
      fingerprint(CampaignRunner({.threads = 1}).run(specs));
  // A directory where the exact panel's cost file goes.
  std::string blocked;
  {
    store::LocalResultStore cache(dir_);
    blocked = plan_scenario(specs[1], &cache).panels.front().cost_key;
  }
  fs::create_directories(dir_ / "costs" / (blocked + ".cost") / "occupied");

  {
    store::LocalResultStore cache(dir_);
    const CampaignRunner runner({.threads = 4, .store = &cache});
    EXPECT_EQ(fingerprint(runner.run(specs)), storeless);
    ASSERT_EQ(runner.incidents().size(), 1u);
    EXPECT_EQ(runner.incidents()[0].rfind(
                  "cache: 1 measured costs not recorded (first: " + blocked +
                      ": ",
                  0),
              0u)
        << runner.incidents()[0];
    EXPECT_EQ(cache.stats().stores, 3u);
    EXPECT_EQ(cache.stats().put_failures, 0u);
  }
  // Every entry was stored, so the rerun hits all three.
  store::LocalResultStore cache(dir_);
  const CampaignRunner runner({.threads = 4, .store = &cache});
  EXPECT_EQ(fingerprint(runner.run(specs)), storeless);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST_F(CampaignCacheTest, CanonicalFormatCacheMigratesByHealing) {
  const auto specs = make_campaign();
  const std::vector<ScenarioResult> storeless =
      CampaignRunner({.threads = 1}).run(specs);

  // What a format-1 store wrote: canonical blobs, and sidecars recording
  // their size and FNV-1a.
  const auto fill_canonical = [&] {
    fs::remove_all(dir_);
    store::LocalResultStore cache(dir_);
    std::vector<std::string> keys;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const ScenarioJob job = plan_scenario(specs[s], &cache);
      const std::string key =
          job.solve ? job.solve->key : job.panels.front().key;
      const std::string blob =
          job.solve ? store::serialize_solution(storeless[s].solution)
                    : store::serialize_panel_series(storeless[s].panels[0]);
      std::ofstream(dir_ / "entries" / (key + ".bin"), std::ios::binary)
          << blob;
      std::ofstream(dir_ / "entries" / (key + ".info"))
          << "Key: " << key << "\nKind: panel\nDataSize: " << blob.size()
          << "\nDataHash: fnv1a64:" << store::to_hex(store::fnv1a64(blob))
          << "\nCostPerPoint: 0\n";
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  // verify flags every format-1 entry, and gc removes them.
  {
    const std::vector<std::string> keys = fill_canonical();
    store::LocalResultStore cache(dir_);
    EXPECT_EQ(cache.verify(), keys);
    EXPECT_EQ(cache.gc(), keys.size());
    EXPECT_EQ(cache.stats().entries, 0u);
  }

  // A campaign on them: no hits, the storeless results, every entry
  // re-put in the current format.
  const std::vector<std::string> keys = fill_canonical();
  store::StoreStats first;
  EXPECT_EQ(fingerprint(run_cached(specs, &first)), fingerprint(storeless));
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.corrupt, specs.size());
  EXPECT_EQ(first.stores, specs.size());
  for (const std::string& key : keys) {
    std::ifstream in(dir_ / "entries" / (key + ".bin"), std::ios::binary);
    const std::string blob{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    EXPECT_NO_THROW((void)store::check_envelope(blob)) << key;
    store::LocalResultStore cache(dir_);
    EXPECT_EQ(cache.info(key)->data_hash.rfind("lane64:", 0), 0u);
  }

  // Then every entry is a hit, and verify is clean.
  store::StoreStats second;
  EXPECT_EQ(fingerprint(run_cached(specs, &second)), fingerprint(storeless));
  EXPECT_EQ(second.hits - first.hits, specs.size());
  EXPECT_EQ(second.stores, first.stores);
  store::LocalResultStore cache(dir_);
  EXPECT_TRUE(cache.verify().empty());
}

}  // namespace
}  // namespace rexspeed::engine
