// The persistent result store: hashing primitives against published test
// vectors, content-address derivation (stability + sensitivity), the
// local tier's disk contract (roundtrip, sidecars, verify/gc, persisted
// counters, cost table), the null tier and the factory's spec vocabulary.

#include "rexspeed/store/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/serialize.hpp"
#include "rexspeed/store/store_key.hpp"
#include "rexspeed/sweep/thread_pool.hpp"

namespace rexspeed::store {
namespace {

namespace fs = std::filesystem;

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rexspeed_store_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---- hashing primitives --------------------------------------------------

TEST(StoreHash, Sha256MatchesFipsTestVectors) {
  // FIPS 180-4 appendix examples.
  EXPECT_EQ(to_hex(Sha256::of("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::of("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(StoreHash, Sha256IncrementalMatchesOneShot) {
  Sha256 incremental;
  incremental.update("abcdbcdecdefdefgefghfghighij", 28);
  incremental.update("hijkijkljklmklmnlmnomnopnopq", 28);
  EXPECT_EQ(to_hex(incremental.finish()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(StoreHash, Fnv1a64MatchesReferenceValues) {
  EXPECT_EQ(fnv1a64(std::string_view{}), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(to_hex(std::uint64_t{0xaf63dc4c8601ec8cull}),
            "af63dc4c8601ec8c");
}

/// Bytes 0..size-1 of the known-answer message: byte i is 37 i + 11.
std::string kat_message(std::size_t size) {
  std::string message;
  for (std::size_t i = 0; i < size; ++i) {
    message.push_back(static_cast<char>(i * 37 + 11));
  }
  return message;
}

TEST(StoreHash, LaneHash64MatchesKnownAnswers) {
  // Pinned: every entry on disk carries this checksum, so changing the
  // function is a format change (bump kFormatVersion). The lengths cover
  // no words, a tail only, one word, a word plus tail, a block short of a
  // byte, one block, and a block plus a byte.
  const std::pair<std::size_t, const char*> answers[] = {
      {0, "2d39e577bdaa7d33"},  {1, "de8aa461b4c36206"},
      {7, "522a0203b901589c"},  {8, "5f7284a70b88e419"},
      {9, "0de572187f029945"},  {31, "0c09878fd090bfee"},
      {32, "38e5a4c3a8f1a96c"}, {33, "a28ec5ce3f6766e5"},
  };
  for (const auto& [size, expected] : answers) {
    const std::string message = kat_message(size);
    EXPECT_EQ(to_hex(lane_hash64(message)), expected) << size << " bytes";
    // The same bytes at every misalignment of the view.
    for (std::size_t shift = 1; shift < 8; ++shift) {
      const std::string padded = std::string(shift, '\x5a') + message;
      EXPECT_EQ(to_hex(lane_hash64(padded.data() + shift, size)), expected)
          << size << " bytes at offset " << shift;
    }
  }
}

/// lane_hash64 spelled out byte by byte, as hash.hpp documents it.
std::uint64_t lane_hash64_reference(const std::string& bytes) {
  const auto mix = [](std::uint64_t lane, std::uint64_t word) {
    lane = (lane ^ word) * 0x9e3779b97f4a7c15ULL;
    return lane ^ (lane >> 32);
  };
  const auto fmix = [](std::uint64_t value) {
    value ^= value >> 33;
    value *= 0xff51afd7ed558ccdULL;
    value ^= value >> 33;
    value *= 0xc4ceb9fe1a85ec53ULL;
    return value ^ (value >> 33);
  };
  std::uint64_t lanes[4];
  for (std::uint64_t i = 0; i < 4; ++i) {
    lanes[i] = 0xc2b2ae3d27d4eb4fULL * (2 * i + 1);
  }
  for (std::size_t word = 0; 8 * word < bytes.size(); ++word) {
    std::uint64_t value = 0;  // little-endian, zero-padded past the end
    for (std::size_t b = 0; b < 8 && 8 * word + b < bytes.size(); ++b) {
      value |= std::uint64_t{static_cast<std::uint8_t>(bytes[8 * word + b])}
               << (8 * b);
    }
    lanes[word % 4] = mix(lanes[word % 4], value);
  }
  std::uint64_t fold = bytes.size() * 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t lane : lanes) {
    fold = ((fold << 23) | (fold >> 41)) ^ fmix(lane);
  }
  return fmix(fold);
}

TEST(StoreHash, LaneHash64MatchesItsByteWiseDefinition) {
  for (std::size_t size = 0; size <= 100; ++size) {
    EXPECT_EQ(lane_hash64(kat_message(size)),
              lane_hash64_reference(kat_message(size)))
        << size << " bytes";
  }
}

// ---- key derivation ------------------------------------------------------

TEST(StoreKey, PanelKeyIsStableAndIgnoresExecutionKnobs) {
  engine::ScenarioSpec spec;
  spec.configuration = "Hera/XScale";
  const auto backend = engine::make_backend(spec);
  const std::vector<double> grid = {1.5, 2.0, 3.0};
  sweep::SweepOptions options;

  const std::string key =
      panel_key(*backend, spec.configuration,
                sweep::SweepParameter::kPerformanceBound, grid, options);
  EXPECT_EQ(key.size(), 64u);  // SHA-256 hex
  EXPECT_EQ(key,
            panel_key(*backend, spec.configuration,
                      sweep::SweepParameter::kPerformanceBound, grid,
                      options));

  // The pool is an execution knob: a pooled run produces the same bytes
  // as a serial one, so it must NOT split the address space.
  sweep::ThreadPool pool(2);
  sweep::SweepOptions pooled = options;
  pooled.pool = &pool;
  EXPECT_EQ(key,
            panel_key(*backend, spec.configuration,
                      sweep::SweepParameter::kPerformanceBound, grid,
                      pooled));

  // Everything that can change the output bits must change the key.
  sweep::SweepOptions other_rho = options;
  other_rho.rho = options.rho + 1.0;
  EXPECT_NE(key,
            panel_key(*backend, spec.configuration,
                      sweep::SweepParameter::kPerformanceBound, grid,
                      other_rho));
  EXPECT_NE(key, panel_key(*backend, spec.configuration,
                           sweep::SweepParameter::kCheckpointTime, grid,
                           options));
  const std::vector<double> other_grid = {1.5, 2.0, 3.5};
  EXPECT_NE(key,
            panel_key(*backend, spec.configuration,
                      sweep::SweepParameter::kPerformanceBound, other_grid,
                      options));

  engine::ScenarioSpec exact = spec;
  exact.mode = core::EvalMode::kExactOptimize;
  const auto exact_backend = engine::make_backend(exact);
  EXPECT_NE(key,
            panel_key(*exact_backend, spec.configuration,
                      sweep::SweepParameter::kPerformanceBound, grid,
                      options));

  // A chained exact-opt C panel keeps the key it had when warm-start
  // chaining was still a switch (recorded on): caches filled before stay
  // valid.
  EXPECT_EQ(panel_key(*exact_backend, spec.configuration,
                      sweep::SweepParameter::kCheckpointTime,
                      {0.0, 2500.0, 5000.0}, options),
            "d6f0e57bce1eb10f387e83bde733d991bbda4d0e8c1d503c3e0e2bf117f027c8");
}

TEST(StoreKey, SolveKeyDependsOnPolicyBoundAndFallback) {
  engine::ScenarioSpec spec;
  spec.configuration = "Hera/XScale";
  const auto backend = engine::make_backend(spec);
  const std::string key = solve_key(*backend, 3.0,
                                    core::SpeedPolicy::kTwoSpeed, true);
  EXPECT_EQ(key, solve_key(*backend, 3.0, core::SpeedPolicy::kTwoSpeed,
                           true));
  EXPECT_NE(key, solve_key(*backend, 3.5, core::SpeedPolicy::kTwoSpeed,
                           true));
  EXPECT_NE(key, solve_key(*backend, 3.0, core::SpeedPolicy::kSingleSpeed,
                           true));
  EXPECT_NE(key, solve_key(*backend, 3.0, core::SpeedPolicy::kTwoSpeed,
                           false));
}

TEST(StoreKey, CostKeyIsCoarse) {
  engine::ScenarioSpec spec;
  spec.configuration = "Hera/XScale";
  const auto backend = engine::make_backend(spec);
  const std::string key =
      cost_key(*backend, sweep::SweepParameter::kPerformanceBound);
  EXPECT_EQ(key.size(), 16u);  // FNV-1a 64 hex
  EXPECT_EQ(key, cost_key(*backend, sweep::SweepParameter::kPerformanceBound));
  EXPECT_NE(key, cost_key(*backend, sweep::SweepParameter::kCheckpointTime));
}

// ---- serialization -------------------------------------------------------

TEST(StoreSerialize, SolutionRoundTripsBitForBit) {
  core::Solution solution;
  solution.pair().sigma1 = 0.4;
  solution.pair().sigma2 = 0.81;
  solution.pair().sigma1_index = 1;
  solution.pair().sigma2_index = 3;
  solution.pair().feasible = true;
  solution.pair().first_order_valid = false;
  solution.pair().rho_min = 1.25;
  solution.pair().w_opt = 2764.25;
  solution.pair().w_energy = std::numeric_limits<double>::infinity();
  solution.pair().w_min = 12.5;
  solution.pair().w_max = std::numeric_limits<double>::quiet_NaN();
  solution.pair().energy_overhead = 416.8125;
  solution.pair().time_overhead = 2.6837;
  solution.used_fallback = true;

  const std::string blob = serialize_solution(solution);
  EXPECT_EQ(blob.size(), canonical_size(solution));
  // Serialize(deserialize(x)) is a fixed point — including non-finite
  // doubles, whose bit patterns must survive the trip untouched.
  EXPECT_EQ(serialize_solution(deserialize_solution(blob)), blob);

  // The same for the store's entry form.
  const std::string entry = encode_solution_entry(solution);
  const BlobEnvelope envelope = check_envelope(entry);
  EXPECT_EQ(envelope.kind, PayloadKind::kSolution);
  EXPECT_EQ(envelope.checksum, stored_checksum(entry));
  EXPECT_EQ(encode_solution_entry(decode_solution_entry(entry)), entry);
  EXPECT_EQ(serialize_solution(decode_solution_entry(entry)), blob);
}

TEST(StoreSerialize, EntriesAndCanonicalBlobsAreDifferentFormats) {
  sweep::PanelSeries series;
  series.configuration = "Hera/XScale";
  series.points.resize(3);
  const std::string canonical = serialize_panel_series(series);
  const std::string entry = encode_panel_entry(series);
  EXPECT_EQ(canonical.size(), canonical_size(series));
  // Each codec rejects the other's blobs by their version.
  EXPECT_THROW((void)check_envelope(canonical), SerializeError);
  EXPECT_THROW((void)decode_panel_entry(canonical, 3), SerializeError);
  EXPECT_THROW((void)deserialize_panel_series(entry), SerializeError);
  // A panel decodes only at the point count its caller expects, and only
  // as the payload kind it is.
  EXPECT_EQ(decode_panel_entry(entry, 3).points.size(), 3u);
  EXPECT_THROW((void)decode_panel_entry(entry, 4), SerializeError);
  EXPECT_THROW((void)decode_solution_entry(entry), SerializeError);
}

TEST(StoreSerialize, CorruptedBytesAreDetected) {
  const sweep::PanelSeries series = [] {
    sweep::PanelSeries s;
    s.configuration = "Hera/XScale";
    s.rho = 3.0;
    s.points.resize(2);
    s.points[0].x = 1.5;
    s.points[1].x = 2.5;
    return s;
  }();
  const std::string blob = serialize_panel_series(series);
  EXPECT_EQ(serialize_panel_series(deserialize_panel_series(blob)), blob);

  std::string corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x01;  // one flipped bit anywhere
  EXPECT_THROW((void)deserialize_panel_series(corrupt), SerializeError);
  EXPECT_THROW((void)deserialize_panel_series(blob.substr(0, 10)),
               SerializeError);
  EXPECT_THROW((void)deserialize_solution(blob), SerializeError);  // kind
}

// ---- local tier ----------------------------------------------------------

TEST_F(ResultStoreTest, LocalPutFetchRoundTripsWithSidecar) {
  LocalResultStore store(dir_);
  const std::string key(64, 'a');
  const std::string blob = encode_solution_entry(core::Solution{});

  EXPECT_FALSE(store.fetch(key).has_value());  // miss first

  EntryInfo info;
  info.kind = "solution";
  info.scenario = "fig02";
  info.configuration = "Hera/XScale";
  info.backend = "closed-form";
  info.backend_version = "cf-1";
  info.axis = "-";
  info.points = 1;
  info.canonical_size = canonical_size(core::Solution{});
  store.put(key, blob, info);

  const auto fetched = store.fetch(key);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, blob);

  const auto sidecar = store.info(key);
  ASSERT_TRUE(sidecar.has_value());
  EXPECT_EQ(sidecar->key, key);
  EXPECT_EQ(sidecar->kind, "solution");
  EXPECT_EQ(sidecar->scenario, "fig02");
  EXPECT_EQ(sidecar->backend_version, "cf-1");
  EXPECT_EQ(sidecar->data_size, blob.size());
  EXPECT_EQ(sidecar->canonical_size, serialize_solution({}).size());
  // The entry's trailer checksum, recorded without a second hash pass;
  // pinned, like the checksum itself.
  EXPECT_EQ(sidecar->data_hash, "lane64:" + to_hex(check_envelope(blob).checksum));
  EXPECT_EQ(sidecar->data_hash, "lane64:1f086aee546552ce");

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.sized_bytes, blob.size());
  EXPECT_EQ(stats.canonical_bytes, serialize_solution({}).size());
  EXPECT_TRUE(store.verify().empty());
}

TEST_F(ResultStoreTest, StatsSumTheSidecarSizes) {
  // Two panels and an entry whose sidecar records no canonical size (it
  // counts in `bytes`, not in the ratio's sums).
  LocalResultStore store(dir_);
  sweep::PanelSeries series;
  series.configuration = "Hera/XScale";
  std::uint64_t sized = 0;
  std::uint64_t canonical = 0;
  for (const std::size_t points : {101u, 2001u}) {
    series.points.resize(points);
    for (std::size_t i = 0; i < points; ++i) {
      series.points[i].x = 1.0 + static_cast<double>(i) / 64.0;
      series.points[i].primary.pair().w_opt = 1000.0 + static_cast<double>(i);
    }
    const std::string blob = encode_panel_entry(series);
    EntryInfo info;
    info.canonical_size = canonical_size(series);
    store.put(std::string(64, points == 101 ? '1' : '2'), blob, info);
    sized += blob.size();
    canonical += info.canonical_size;
  }
  const std::string unsized = encode_solution_entry(core::Solution{});
  store.put(std::string(64, '3'), unsized, EntryInfo{});

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, sized + unsized.size());
  EXPECT_EQ(stats.sized_bytes, sized);
  EXPECT_EQ(stats.canonical_bytes, canonical);
  // Two raw double columns out of 45: far smaller than the rows.
  EXPECT_GT(stats.canonical_bytes, 5 * stats.sized_bytes);
}

TEST_F(ResultStoreTest, PutManyStoresAcrossAPoolAndReportsEachFailure) {
  LocalResultStore store(dir_);
  // 40 entries; the 7th cannot be encoded, the 13th cannot be written (a
  // directory holds its path), and the 20th is written but its cost
  // cannot be (likewise).
  std::vector<core::Solution> solutions(40);
  std::vector<PutEntry> entries;
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    solutions[i].pair().w_opt = static_cast<double>(i);
    PutEntry entry;
    entry.key = to_hex(Sha256::of("put-many-" + std::to_string(i)));
    entry.info.kind = "solution";
    entry.info.cost_seconds_per_point = 1e-6 * static_cast<double>(i + 1);
    entry.cost_key = to_hex(fnv1a64(entry.key));
    const core::Solution& solution = solutions[i];
    entry.encode = [&solution] { return encode_solution_entry(solution); };
    entries.push_back(std::move(entry));
  }
  entries[6].encode = []() -> std::string {
    throw SerializeError("serialize: cannot encode");
  };
  fs::create_directories(dir_ / "entries" / (entries[12].key + ".bin") /
                         "occupied");
  fs::create_directories(dir_ / "costs" / (entries[19].cost_key + ".cost") /
                         "occupied");

  sweep::ThreadPool pool(4);
  const PutFailures failures =
      store.put_many(entries, sweep::make_parallel_build(&pool));
  ASSERT_EQ(failures.entries.size(), 2u);
  EXPECT_EQ(failures.entries[0].rfind(entries[6].key + ": ", 0), 0u)
      << failures.entries[0];
  EXPECT_NE(failures.entries[0].find("cannot encode"), std::string::npos);
  EXPECT_EQ(failures.entries[1].rfind(entries[12].key + ": ", 0), 0u)
      << failures.entries[1];
  // A lost cost is reported apart: its entry is stored and counts so.
  ASSERT_EQ(failures.costs.size(), 1u);
  EXPECT_EQ(failures.costs[0].rfind(entries[19].cost_key + ": ", 0), 0u)
      << failures.costs[0];

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.stores, 38u);
  EXPECT_EQ(stats.put_failures, 2u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const bool stored = i != 6 && i != 12;
    const std::optional<std::string> blob = store.fetch(entries[i].key);
    EXPECT_EQ(blob.has_value(), stored) << i;
    if (blob) {
      EXPECT_EQ(decode_solution_entry(*blob).pair().w_opt, solutions[i].pair().w_opt);
    }
    EXPECT_EQ(store.lookup_cost(entries[i].cost_key).has_value(),
              stored && i != 19)
        << i;
  }
  // Failures are counted in the persisted stats too.
  store.flush();
  EXPECT_EQ(LocalResultStore(dir_).stats().put_failures, 2u);
}

TEST_F(ResultStoreTest, CountersPersistAcrossInstances) {
  const std::string key(64, 'b');
  {
    LocalResultStore store(dir_);
    (void)store.fetch(key);  // miss
    store.put(key, encode_solution_entry(core::Solution{}), EntryInfo{});
    (void)store.fetch(key);  // hit
  }  // destructor flushes
  LocalResultStore reopened(dir_);
  const StoreStats stats = reopened.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST_F(ResultStoreTest, CorruptEntriesAreMissesUntilHealed) {
  LocalResultStore store(dir_);
  const std::string key(64, 'c');
  const std::string blob = encode_solution_entry(core::Solution{});
  store.put(key, blob, EntryInfo{});

  // Flip one payload byte on disk: fetch must report a miss (corrupt
  // counter bumped), verify must flag the key, and the entry must stay on
  // disk for inspection until gc or a healing re-put.
  const fs::path entry = dir_ / "entries" / (key + ".bin");
  {
    std::fstream file(entry, std::ios::in | std::ios::out |
                                 std::ios::binary);
    file.seekp(9);
    file.put('\xff');
  }
  EXPECT_FALSE(store.fetch(key).has_value());
  EXPECT_EQ(store.stats().corrupt, 1u);
  const std::vector<std::string> bad = store.verify();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad.front(), key);

  store.put(key, blob, EntryInfo{});  // healing re-put
  EXPECT_TRUE(store.fetch(key).has_value());
  EXPECT_TRUE(store.verify().empty());
}

TEST_F(ResultStoreTest, GcRemovesWhatVerifyFlags) {
  LocalResultStore store(dir_);
  const std::string good(64, 'd');
  const std::string bad(64, 'e');
  store.put(good, encode_solution_entry(core::Solution{}), EntryInfo{});
  store.put(bad, encode_solution_entry(core::Solution{}), EntryInfo{});
  std::ofstream(dir_ / "entries" / (bad + ".bin"), std::ios::trunc)
      << "garbage";
  // An orphan sidecar (no payload) is damage too.
  std::ofstream(dir_ / "entries" / (std::string(64, 'f') + ".info"))
      << "Key: " << std::string(64, 'f') << "\n";

  EXPECT_EQ(store.verify().size(), 2u);
  EXPECT_EQ(store.gc(), 2u);
  EXPECT_TRUE(store.verify().empty());
  EXPECT_TRUE(store.fetch(good).has_value());
  EXPECT_FALSE(store.fetch(bad).has_value());
}

TEST_F(ResultStoreTest, CostTableRoundTrips) {
  LocalResultStore store(dir_);
  const std::string key = "0123456789abcdef";
  EXPECT_FALSE(store.lookup_cost(key).has_value());
  store.record_cost(key, 1.25e-4);
  const auto cost = store.lookup_cost(key);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 1.25e-4);
  // Persisted: a fresh instance sees it.
  LocalResultStore reopened(dir_);
  EXPECT_TRUE(reopened.lookup_cost(key).has_value());
}

TEST_F(ResultStoreTest, InvalidKeysAreRejectedNotPathTraversed) {
  // Keys are lower-case hex by construction; anything else is a caller
  // bug (and a path-traversal hazard), reported loudly — not a miss.
  LocalResultStore store(dir_);
  EXPECT_THROW((void)store.fetch("../../etc/passwd"), StoreError);
  EXPECT_THROW((void)store.fetch("UPPER"), StoreError);
  EXPECT_THROW((void)store.fetch(""), StoreError);
}

// ---- sidecar format ------------------------------------------------------

TEST(StoreSidecar, FormatParseRoundTrips) {
  EntryInfo info;
  info.key = std::string(64, 'a');
  info.kind = "panel";
  info.scenario = "fig05";
  info.configuration = "Atlas/Crusoe";
  info.backend = "exact-opt";
  info.backend_version = "exact-1";
  info.axis = "rho";
  info.points = 51;
  info.data_size = 4096;
  info.canonical_size = 13370;
  info.data_hash = "lane64:0123456789abcdef";
  info.cost_seconds_per_point = 3.5e-3;

  const EntryInfo parsed = parse_entry_info(format_entry_info(info));
  EXPECT_EQ(parsed.key, info.key);
  EXPECT_EQ(parsed.kind, info.kind);
  EXPECT_EQ(parsed.scenario, info.scenario);
  EXPECT_EQ(parsed.configuration, info.configuration);
  EXPECT_EQ(parsed.backend, info.backend);
  EXPECT_EQ(parsed.backend_version, info.backend_version);
  EXPECT_EQ(parsed.axis, info.axis);
  EXPECT_EQ(parsed.points, info.points);
  EXPECT_EQ(parsed.data_size, info.data_size);
  EXPECT_EQ(parsed.canonical_size, info.canonical_size);
  EXPECT_EQ(parsed.data_hash, info.data_hash);
  EXPECT_EQ(parsed.cost_seconds_per_point, info.cost_seconds_per_point);

  // Unknown fields are skipped (forward compatibility); a sidecar with no
  // usable Key line is structurally broken.
  EXPECT_EQ(parse_entry_info("Key: abc\nFutureField: 7\n").key, "abc");
  EXPECT_THROW((void)parse_entry_info("Kind: panel\n"), StoreError);
}

// ---- null + remote tiers and the factory ---------------------------------

TEST(StoreFactory, DispatchesOnSpecVocabulary) {
  EXPECT_STREQ(make_store("")->tier_name(), "null");
  EXPECT_STREQ(make_store("none")->tier_name(), "null");
  const fs::path dir =
      fs::temp_directory_path() / "rexspeed_store_factory_local";
  fs::remove_all(dir);
  EXPECT_STREQ(make_store("file://" + dir.string())->tier_name(), "local");
  fs::remove_all(dir);
}

TEST(StoreTiers, NullStoreMissesAndSwallowsPuts) {
  NullResultStore store;
  EXPECT_FALSE(store.fetch("abc").has_value());
  store.put("abc", "bytes", EntryInfo{});
  EXPECT_FALSE(store.fetch("abc").has_value());
  EXPECT_EQ(store.stats().misses, 2u);
  EXPECT_EQ(store.stats().stores, 0u);
}

TEST(StoreFactory, RejectsRemoteSpecsByName) {
  // There is no remote tier: a URL must fail naming the spec, not turn
  // into a local directory such as "s3:/bucket".
  for (const std::string spec :
       {"http://cache.example.org", "https://cache.example.org/rexspeed",
        "s3://bucket/prefix"}) {
    SCOPED_TRACE(spec);
    try {
      (void)make_store(spec);
      ADD_FAILURE() << "make_store accepted " << spec;
    } catch (const StoreError& error) {
      EXPECT_NE(std::string(error.what()).find(spec), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace rexspeed::store
