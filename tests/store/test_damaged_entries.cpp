// One matrix of damaged cache entries through every read path of the
// local store: fetch, fetch_many (across a pool, serially, and through the
// ResultStore base class's default, which loops fetch) and verify must
// agree on every case, and every fetch path must move the hit, miss and
// corrupt counters exactly alike. A damaged entry is never an error: it
// is a miss that bumps `corrupt`, and the caller recomputes.

#include "rexspeed/store/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/serialize.hpp"
#include "rexspeed/sweep/thread_pool.hpp"

namespace rexspeed::store {
namespace {

namespace fs = std::filesystem;

enum class Outcome { kHit, kMiss, kCorrupt };

/// One entry, stored intact and then damaged on disk.
struct Case {
  std::string name;
  Outcome expected;
  /// Damages the stored entry (`bin`, `info`); null leaves it intact, and
  /// an absent entry is never stored at all.
  std::function<void(const fs::path& bin, const fs::path& info)> damage;
  /// A panel blob large enough for fetch_many to read it into pages of
  /// its own, rather than a small solution blob read onto the heap.
  bool large = false;
};

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

void flip_byte(const fs::path& path, std::size_t (*where)(std::size_t)) {
  std::string bytes = read_bytes(path);
  bytes[where(bytes.size())] ^= 0x01;
  write_bytes(path, bytes);
}

std::vector<Case> damage_matrix() {
  return {
      {"intact", Outcome::kHit, nullptr},
      {"absent", Outcome::kMiss, nullptr},
      {"empty_bin", Outcome::kCorrupt,
       [](const fs::path& bin, const fs::path&) { write_bytes(bin, ""); }},
      {"truncated_blob", Outcome::kCorrupt,
       [](const fs::path& bin, const fs::path&) {
         const std::string bytes = read_bytes(bin);
         write_bytes(bin, bytes.substr(0, bytes.size() / 2));
       }},
      {"flipped_payload_byte", Outcome::kCorrupt,
       [](const fs::path& bin, const fs::path&) {
         flip_byte(bin, [](std::size_t size) { return size / 2; });
       }},
      {"flipped_trailer", Outcome::kCorrupt,
       [](const fs::path& bin, const fs::path&) {
         flip_byte(bin, [](std::size_t size) { return size - 1; });
       }},
      {"wrong_sidecar_hash", Outcome::kCorrupt,
       [](const fs::path&, const fs::path& info) {
         // The blob stays valid; only the recorded payload hash lies.
         EntryInfo entry = parse_entry_info(read_bytes(info));
         entry.data_hash = "fnv1a64:" + to_hex(std::uint64_t{42});
         write_bytes(info, format_entry_info(entry));
       }},
      {"unparsable_sidecar", Outcome::kCorrupt,
       [](const fs::path&, const fs::path& info) {
         write_bytes(info, "not a sidecar\n");
       }},
      {"missing_sidecar", Outcome::kHit,
       [](const fs::path&, const fs::path& info) { fs::remove(info); }},
      {"large_intact", Outcome::kHit, nullptr, true},
      {"large_flipped_payload_byte", Outcome::kCorrupt,
       [](const fs::path& bin, const fs::path&) {
         flip_byte(bin, [](std::size_t size) { return size / 3; });
       },
       true},
  };
}

std::string key_of(const Case& c) {
  return to_hex(fnv1a64("rexspeed-damage-" + c.name));
}

std::string blob_of(const Case& c, std::size_t index) {
  core::Solution solution;
  solution.pair.feasible = true;
  solution.pair.w_opt = 1000.0 + static_cast<double>(index);
  if (!c.large) return serialize_solution(solution);
  sweep::PanelSeries series;
  series.configuration = "Hera/XScale";
  series.points.resize(2000);  // ≈ 520 KB
  for (std::size_t i = 0; i < series.points.size(); ++i) {
    series.points[i].x = static_cast<double>(i);
    series.points[i].primary = solution;
  }
  return serialize_panel_series(series);
}

/// Forwards every call to a real store but inherits ResultStore's serial
/// fetch_many, recording which threads called fetch.
class ForwardingStore final : public ResultStore {
 public:
  explicit ForwardingStore(ResultStore& inner) : inner_(inner) {}

  [[nodiscard]] const char* tier_name() const noexcept override {
    return inner_.tier_name();
  }
  [[nodiscard]] std::optional<std::string> fetch(
      const std::string& key) override {
    fetch_threads.push_back(std::this_thread::get_id());
    return inner_.fetch(key);
  }
  void put(const std::string& key, std::string_view blob,
           EntryInfo info) override {
    inner_.put(key, blob, std::move(info));
  }
  [[nodiscard]] std::optional<EntryInfo> info(const std::string& key) override {
    return inner_.info(key);
  }
  [[nodiscard]] std::optional<double> lookup_cost(
      const std::string& cost_key) override {
    return inner_.lookup_cost(cost_key);
  }
  void record_cost(const std::string& cost_key, double seconds) override {
    inner_.record_cost(cost_key, seconds);
  }
  [[nodiscard]] StoreStats stats() override { return inner_.stats(); }
  [[nodiscard]] std::vector<std::string> verify() override {
    return inner_.verify();
  }
  std::size_t gc() override { return inner_.gc(); }

  std::vector<std::thread::id> fetch_threads;

 private:
  ResultStore& inner_;
};

class DamagedEntriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rexspeed_damage_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    LocalResultStore store(dir_);
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      keys_.push_back(key_of(c));
      if (c.expected == Outcome::kMiss) continue;
      EntryInfo info;
      info.kind = "solution";
      store.put(keys_.back(), blob_of(c, i), info);
      if (c.damage) {
        const fs::path entries = dir_ / "entries";
        c.damage(entries / (keys_.back() + ".bin"),
                 entries / (keys_.back() + ".info"));
      }
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// What one read path returned per case, and how it moved the counters.
  struct Reading {
    std::vector<std::optional<std::string>> blobs;
    StoreStats counted;
  };

  /// The counters `reading` must show, and its blobs checked per case.
  void expect_matrix(const Reading& reading, const char* path) const {
    StoreStats expected;
    ASSERT_EQ(reading.blobs.size(), cases_.size());
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      const bool hit = c.expected == Outcome::kHit;
      EXPECT_EQ(reading.blobs[i].has_value(), hit) << path << ": " << c.name;
      if (hit && reading.blobs[i]) {
        EXPECT_EQ(*reading.blobs[i], blob_of(c, i)) << path << ": " << c.name;
      }
      expected.hits += hit ? 1 : 0;
      expected.misses += c.expected == Outcome::kMiss ? 1 : 0;
      expected.corrupt += c.expected == Outcome::kCorrupt ? 1 : 0;
    }
    EXPECT_EQ(reading.counted.hits, expected.hits) << path;
    EXPECT_EQ(reading.counted.misses, expected.misses) << path;
    EXPECT_EQ(reading.counted.corrupt, expected.corrupt) << path;
    EXPECT_EQ(reading.counted.stores, 0u) << path;
  }

  /// Runs `read` on a fresh handle and returns what it saw, with the
  /// counters it moved (the handle's stats() before and after).
  Reading read_with(
      const std::function<void(ResultStore&, Reading&)>& read) const {
    LocalResultStore store(dir_);
    Reading reading;
    reading.blobs.resize(cases_.size());
    const StoreStats before = store.stats();
    read(store, reading);
    const StoreStats after = store.stats();
    reading.counted.hits = after.hits - before.hits;
    reading.counted.misses = after.misses - before.misses;
    reading.counted.stores = after.stores - before.stores;
    reading.counted.corrupt = after.corrupt - before.corrupt;
    return reading;
  }

  Reading fetch_many_with(const ParallelFor& parallel) const {
    return read_with([&](ResultStore& store, Reading& reading) {
      std::vector<int> calls(cases_.size(), 0);
      store.fetch_many(keys_, parallel,
                       [&](std::size_t i, std::string_view blob) {
                         ++calls[i];
                         reading.blobs[i] = std::string(blob);
                       });
      for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_LE(calls[i], 1) << cases_[i].name;
      }
    });
  }

  const std::vector<Case> cases_ = damage_matrix();
  std::vector<std::string> keys_;
  fs::path dir_;
};

TEST_F(DamagedEntriesTest, FetchSortsEveryCase) {
  expect_matrix(read_with([&](ResultStore& store, Reading& reading) {
                  for (std::size_t i = 0; i < keys_.size(); ++i) {
                    reading.blobs[i] = store.fetch(keys_[i]);
                  }
                }),
                "fetch");
}

TEST_F(DamagedEntriesTest, FetchManyAcrossAPoolAgreesWithFetch) {
  sweep::ThreadPool pool(4);
  expect_matrix(fetch_many_with(sweep::make_parallel_build(&pool)),
                "fetch_many (pool)");
}

TEST_F(DamagedEntriesTest, FetchManyWithoutAHookAgreesWithFetch) {
  expect_matrix(fetch_many_with({}), "fetch_many (serial)");
}

TEST_F(DamagedEntriesTest, DefaultFetchManyLoopsFetchOnTheCallingThread) {
  sweep::ThreadPool pool(4);
  std::vector<std::thread::id> threads;
  const Reading reading = read_with([&](ResultStore& local, Reading& out) {
    ForwardingStore store(local);
    store.fetch_many(keys_, sweep::make_parallel_build(&pool),
                     [&](std::size_t i, std::string_view blob) {
                       threads.push_back(std::this_thread::get_id());
                       out.blobs[i] = std::string(blob);
                     });
    threads.insert(threads.end(), store.fetch_threads.begin(),
                   store.fetch_threads.end());
  });
  expect_matrix(reading, "ResultStore::fetch_many");
  // Every fetch and every sink call, all on this thread.
  EXPECT_EQ(threads.size(), keys_.size() + reading.counted.hits);
  for (const std::thread::id id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST_F(DamagedEntriesTest, VerifyFlagsExactlyTheCorruptCases) {
  std::vector<std::string> corrupt;
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    if (cases_[i].expected == Outcome::kCorrupt) corrupt.push_back(keys_[i]);
  }
  std::sort(corrupt.begin(), corrupt.end());
  LocalResultStore store(dir_);
  EXPECT_EQ(store.verify(), corrupt);

  // gc removes what verify flags; what is left is all hits.
  EXPECT_EQ(store.gc(), corrupt.size());
  EXPECT_TRUE(store.verify().empty());
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    EXPECT_EQ(store.fetch(keys_[i]).has_value(),
              cases_[i].expected == Outcome::kHit)
        << cases_[i].name;
  }
}

}  // namespace
}  // namespace rexspeed::store
