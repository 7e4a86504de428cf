// One matrix of damaged cache entries through every read path of the
// local store: fetch, fetch_many (across a pool, serially, and through the
// ResultStore base class's default, which loops fetch) and verify must
// agree on every case, and every fetch path must move the hit, miss and
// corrupt counters exactly alike. A damaged entry is never an error: it
// is a miss that bumps `corrupt`, and the caller recomputes.
//
// The store checks integrity (the checksum, and the sidecar recording the
// same one); structure is the decoder's. So damage inside one column of
// each layout, resealed with a matching checksum and sidecar as a faulty
// encoder would write it, is a hit on every path, and the panel decoder
// rejects those bytes instead.

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
  /// The panel the entry holds (Panel::kNone: a small solution).
  enum class Panel { kNone, kLarge, kRawX, kRunsX, kRepeatX, kDictX };
  Panel panel = Panel::kNone;
  /// Resealed damage: the entry still verifies, the decoder rejects it.
  bool undecodable = false;
};

/// Points of a Case::Panel: kLarge is big enough for fetch_many to read
/// it into pages of its own, rather than onto the heap.
std::size_t points_of(Case::Panel panel) {
  return panel == Case::Panel::kLarge ? 12000 : 300;
}

constexpr const char* kConfiguration = "Hera/XScale";

/// Offset of the x column's layout tag in a panel entry: the entry header
/// (magic, version, kind), then the panel header (axis, configuration,
/// ρ, kind, segment cap, count). The column's bytes follow the tag.
constexpr std::size_t kXColumn = 9 + 4 + (4 + 11) + 8 + 1 + 4 + 4;

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

/// Rewrites the entry at `bin` as edit(its body) with a fresh checksum,
/// and its sidecar to record that checksum.
void reseal(const fs::path& bin, const fs::path& info,
            const std::function<void(std::string&)>& edit) {
  std::string body = read_bytes(bin);
  body.resize(body.size() - 8);
  edit(body);
  std::uint64_t checksum = lane_hash64(body);
  for (int i = 0; i < 8; ++i, checksum >>= 8) {
    body.push_back(static_cast<char>(checksum & 0xff));
  }
  EntryInfo entry = parse_entry_info(read_bytes(info));
  entry.data_hash = "lane64:" + to_hex(check_envelope(body).checksum);
  write_bytes(bin, body);
  write_bytes(info, format_entry_info(entry));
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
         // The blob stays valid; only the recorded checksum lies.
         EntryInfo entry = parse_entry_info(read_bytes(info));
         entry.data_hash = "lane64:" + to_hex(std::uint64_t{42});
         write_bytes(info, format_entry_info(entry));
       }},
      {"unparsable_sidecar", Outcome::kCorrupt,
       [](const fs::path&, const fs::path& info) {
         write_bytes(info, "not a sidecar\n");
       }},
      {"missing_sidecar", Outcome::kHit,
       [](const fs::path&, const fs::path& info) { fs::remove(info); }},
      {"large_intact", Outcome::kHit, nullptr, Case::Panel::kLarge},
      {"large_flipped_payload_byte", Outcome::kCorrupt,
       [](const fs::path& bin, const fs::path&) {
         flip_byte(bin, [](std::size_t size) { return size / 3; });
       },
       Case::Panel::kLarge},
      // One resealed case per column layout, each in the x column.
      {"raw_column_truncated", Outcome::kHit,
       [](const fs::path& bin, const fs::path& info) {
         reseal(bin, info, [](std::string& body) {
           body.resize(kXColumn + 1 + 8 * 150);  // half of 300 words
         });
       },
       Case::Panel::kRawX, true},
      {"run_longer_than_the_panel", Outcome::kHit,
       [](const fs::path& bin, const fs::path& info) {
         reseal(bin, info, [](std::string& body) {
           // One run: u32 count, then its word and u32 length.
           body[kXColumn + 1 + 4 + 8] = static_cast<char>(301 & 0xff);
         });
       },
       Case::Panel::kRunsX, true},
      {"first_row_marked_repeat", Outcome::kHit,
       [](const fs::path& bin, const fs::path& info) {
         reseal(bin, info, [](std::string& body) {
           body[kXColumn + 1] = static_cast<char>(body[kXColumn + 1] | 1);
         });
       },
       Case::Panel::kRepeatX, true},
      {"dictionary_index_out_of_range", Outcome::kHit,
       [](const fs::path& bin, const fs::path& info) {
         reseal(bin, info, [](std::string& body) {
           // u8 size − 1, two words, then the indices.
           body[kXColumn + 1 + 1 + 16 + 5] = 2;
         });
       },
       Case::Panel::kDictX, true},
  };
}

std::string key_of(const Case& c) {
  return to_hex(fnv1a64("rexspeed-damage-" + c.name));
}

/// The x of row i of a Case::Panel, shaped to put the x column in the
/// layout the case names: all distinct (raw), constant (runs), a new
/// value every third row (repeat), two alternating values (dict).
double x_of(Case::Panel panel, std::size_t i) {
  switch (panel) {
    case Case::Panel::kRunsX:
      return 5.0;
    case Case::Panel::kRepeatX:
      return static_cast<double>(i / 3);
    case Case::Panel::kDictX:
      return static_cast<double>(1 + i % 2);
    default:
      return static_cast<double>(i);
  }
}

std::string blob_of(const Case& c, std::size_t index) {
  core::Solution solution;
  solution.pair().feasible = true;
  solution.pair().w_opt = 1000.0 + static_cast<double>(index);
  if (c.panel == Case::Panel::kNone) return encode_solution_entry(solution);
  sweep::PanelSeries series;
  series.configuration = kConfiguration;
  series.points.resize(points_of(c.panel));
  for (std::size_t i = 0; i < series.points.size(); ++i) {
    series.points[i].x = x_of(c.panel, i);
    series.points[i].primary = solution;
    // Two raw columns besides x: the large panel is ≈ 290 KB on disk.
    series.points[i].primary.pair().w_energy = static_cast<double>(i) / 7.0;
    series.points[i].baseline.pair().w_energy = static_cast<double>(i) / 9.0;
  }
  return encode_panel_entry(series);
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
      if (c.expected == Outcome::kMiss) {
        on_disk_.emplace_back();
        continue;
      }
      EntryInfo info;
      info.kind = "solution";
      store.put(keys_.back(), blob_of(c, i), info);
      const fs::path bin = dir_ / "entries" / (keys_.back() + ".bin");
      if (c.damage) c.damage(bin, dir_ / "entries" / (keys_.back() + ".info"));
      on_disk_.push_back(read_bytes(bin));
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
        EXPECT_EQ(*reading.blobs[i], on_disk_[i]) << path << ": " << c.name;
        EXPECT_EQ(*reading.blobs[i] == blob_of(c, i), !c.undecodable)
            << path << ": " << c.name;
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
  std::vector<std::string> on_disk_;  ///< each entry's bytes after damage
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

TEST_F(DamagedEntriesTest, ResealedColumnDamageIsRejectedByTheDecoder) {
  LocalResultStore store(dir_);
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    const Case& c = cases_[i];
    if (c.panel == Case::Panel::kNone || c.expected != Outcome::kHit) {
      continue;
    }
    const std::optional<std::string> blob = store.fetch(keys_[i]);
    ASSERT_TRUE(blob.has_value()) << c.name;
    const std::size_t points = points_of(c.panel);
    // The x column is in the layout the case damages (0 raw, 1 runs,
    // 2 repeat, 3 dict), and the large panel big enough to be mapped.
    const std::string intact = blob_of(c, i);
    switch (c.panel) {
      case Case::Panel::kLarge:
        EXPECT_GE(intact.size(), std::size_t{256} << 10);
        break;
      case Case::Panel::kRunsX:
        EXPECT_EQ(intact[kXColumn], 1);
        break;
      case Case::Panel::kRepeatX:
        EXPECT_EQ(intact[kXColumn], 2);
        break;
      case Case::Panel::kDictX:
        EXPECT_EQ(intact[kXColumn], 3);
        break;
      default:
        EXPECT_EQ(intact[kXColumn], 0);
    }
    if (c.undecodable) {
      EXPECT_THROW((void)decode_panel_entry(*blob, points), SerializeError)
          << c.name;
    } else {
      EXPECT_EQ(encode_panel_entry(decode_panel_entry(*blob, points)), *blob)
          << c.name;
    }
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

// ---- the payload a Solution does not hold --------------------------------
//
// A Solution holds one payload; both codecs store the other as its
// defaults. Bytes that put a non-default value there (a row relabelled as
// the other kind, resealed) decode to no Solution that would encode back
// to them, so both decoders reject them.

/// `blob` with the u64 little-endian word at `at` set to `word` (or only
/// its low byte, with `byte`), resealed with the codec's checksum.
std::string relabelled(std::string blob, std::size_t at, std::uint64_t word,
                       bool entry, bool byte = false) {
  blob.resize(blob.size() - 8);
  for (std::size_t i = 0; i < (byte ? 1 : 8); ++i) {
    blob[at + i] = static_cast<char>((word >> (8 * i)) & 0xff);
  }
  std::uint64_t checksum = entry ? lane_hash64(blob) : fnv1a64(blob);
  for (int i = 0; i < 8; ++i, checksum >>= 8) {
    blob.push_back(static_cast<char>(checksum & 0xff));
  }
  return blob;
}

core::Solution pattern_of(unsigned segments) {
  core::InterleavedSolution pattern;
  pattern.segments = segments;
  return core::Solution::from_interleaved(pattern);
}

core::Solution pair_with_w_opt(double w_opt) {
  core::PairSolution pair;
  pair.w_opt = w_opt;
  return core::Solution::from_pair(pair);
}

// A one-row entry is the header, then one raw column per field: its tag
// and one word. The kind column comes first.
constexpr std::size_t kEntryKindWord = 9 + 1;

TEST(InactivePayload, SolutionEntryWithANonDefaultInactiveColumnIsRejected) {
  // An interleaved row relabelled as a pair: its segments column (3) sits
  // in the payload a pair Solution does not hold.
  const std::string pattern = encode_solution_entry(pattern_of(3));
  EXPECT_THROW((void)decode_solution_entry(
                   relabelled(pattern, kEntryKindWord, 0, true)),
               SerializeError);
  // A pair row relabelled as interleaved: its w_opt column (5) likewise.
  const std::string pair = encode_solution_entry(pair_with_w_opt(5.0));
  EXPECT_THROW((void)decode_solution_entry(
                   relabelled(pair, kEntryKindWord, 1, true)),
               SerializeError);
  // The same relabelling of an all-default row is a valid entry: the
  // rejection is the inactive column's value, not the edit.
  const std::string plain = relabelled(
      encode_solution_entry(pattern_of(1)), kEntryKindWord, 0, true);
  EXPECT_EQ(decode_solution_entry(plain).kind(), core::SolutionKind::kPair);
  EXPECT_EQ(encode_solution_entry(decode_solution_entry(plain)), plain);
}

TEST(InactivePayload, PanelEntryWithANonDefaultInactiveColumnIsRejected) {
  // Constant columns are single runs: the x column's tag, run count, word
  // and length, then the primary's kind column, whose word follows its
  // tag and run count.
  const auto entry_of = [](unsigned segments) {
    sweep::PanelSeries series;
    series.configuration = kConfiguration;
    series.points.resize(300);
    for (core::PanelPoint& point : series.points) {
      point.x = 5.0;
      point.primary = pattern_of(segments);
    }
    return encode_panel_entry(series);
  };
  constexpr std::size_t kKindColumn = kXColumn + 1 + 4 + 8 + 4;
  constexpr std::size_t kKindWord = kKindColumn + 1 + 4;
  const std::string entry = entry_of(2);
  ASSERT_EQ(entry[kKindColumn], 1);  // runs
  EXPECT_EQ(encode_panel_entry(decode_panel_entry(entry, 300)), entry);
  EXPECT_THROW(
      (void)decode_panel_entry(relabelled(entry, kKindWord, 0, true), 300),
      SerializeError);
  const std::string plain = relabelled(entry_of(1), kKindWord, 0, true);
  EXPECT_EQ(encode_panel_entry(decode_panel_entry(plain, 300)), plain);
}

// A canonical Solution blob is the envelope (magic, version, payload
// kind), then the Solution's kind byte and both payloads.
constexpr std::size_t kCanonicalKindByte = 4 + 4 + 1;

TEST(InactivePayload, CanonicalBlobWithANonDefaultInactivePayloadIsRejected) {
  const std::string pattern = serialize_solution(pattern_of(3));
  EXPECT_THROW((void)deserialize_solution(
                   relabelled(pattern, kCanonicalKindByte, 0, false, true)),
               SerializeError);
  const std::string pair = serialize_solution(pair_with_w_opt(5.0));
  EXPECT_THROW((void)deserialize_solution(
                   relabelled(pair, kCanonicalKindByte, 1, false, true)),
               SerializeError);
  const std::string plain = relabelled(serialize_solution(pattern_of(1)),
                                       kCanonicalKindByte, 0, false, true);
  EXPECT_EQ(serialize_solution(deserialize_solution(plain)), plain);
}

}  // namespace
}  // namespace rexspeed::store
