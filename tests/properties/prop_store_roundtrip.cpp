// Properties of the result-store serialization and the local tier:
//
//   1. serialize/deserialize (the canonical form) is a fixed point for ANY
//      Solution and ANY PanelSeries — including non-finite doubles, whose
//      bit patterns must survive untouched (the cached ≡ recomputed
//      contract is byte equality, so "round-trips up to tolerance" is not
//      good enough);
//   2. so are the store's entries: decode(encode(v)) == v bit for bit and
//      encode(decode(e)) == e, for arbitrary series (NaN payloads, ±0,
//      ±inf, columns in every layout) and for the real panels of every
//      backend on every axis it advertises;
//   3. a single flipped bit ANYWHERE in a blob is detected — by the
//      canonical deserializer, by check_envelope for an entry, and by
//      lane_hash64 over any bytes;
//   4. put → fetch through a LocalResultStore is the identity on entries,
//      through put and through put_many on a pool.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/result_store.hpp"
#include "rexspeed/store/serialize.hpp"
#include "rexspeed/sweep/thread_pool.hpp"
#include "support/proptest.hpp"

namespace rexspeed::store {
namespace {

namespace fs = std::filesystem;

/// Doubles spanning the store's whole input domain: ordinary magnitudes,
/// subnormals, signed zeros, infinities and NaN — everything a solver
/// field can legally hold.
double arbitrary_double(proptest::Rng& rng) {
  switch (rng.index(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::infinity();
    case 3:
      return -std::numeric_limits<double>::infinity();
    case 4:  // a NaN with an arbitrary sign and payload
      return std::bit_cast<double>(0x7ff0000000000001ULL |
                                   (rng.next_u64() & 0x800fffffffffffffULL));
    case 5:
      return std::numeric_limits<double>::denorm_min();
    case 6:
      return rng.uniform(-1.0, 1.0) * 1e300;
    default:
      return rng.uniform(-1e4, 1e4);
  }
}

core::PairSolution arbitrary_pair(proptest::Rng& rng) {
  core::PairSolution pair;
  pair.sigma1 = arbitrary_double(rng);
  pair.sigma2 = arbitrary_double(rng);
  pair.sigma1_index = static_cast<int>(rng.index(8)) - 1;
  pair.sigma2_index = static_cast<int>(rng.index(8)) - 1;
  pair.feasible = rng.chance(0.5);
  pair.first_order_valid = rng.chance(0.5);
  pair.rho_min = arbitrary_double(rng);
  pair.w_opt = arbitrary_double(rng);
  pair.w_energy = arbitrary_double(rng);
  pair.w_min = arbitrary_double(rng);
  pair.w_max = arbitrary_double(rng);
  pair.energy_overhead = arbitrary_double(rng);
  pair.time_overhead = arbitrary_double(rng);
  return pair;
}

core::Solution arbitrary_solution(proptest::Rng& rng) {
  core::Solution solution;
  if (rng.chance(0.5)) {
    solution = core::Solution::from_pair(arbitrary_pair(rng));
  } else {
    core::InterleavedSolution pattern;
    pattern.feasible = rng.chance(0.5);
    pattern.segments = static_cast<unsigned>(rng.index(16)) + 1;
    pattern.sigma1 = arbitrary_double(rng);
    pattern.sigma2 = arbitrary_double(rng);
    pattern.w_opt = arbitrary_double(rng);
    pattern.energy_overhead = arbitrary_double(rng);
    pattern.time_overhead = arbitrary_double(rng);
    solution = core::Solution::from_interleaved(pattern);
  }
  solution.used_fallback = rng.chance(0.5);
  return solution;
}

/// A series whose columns land in every entry layout: each field of a
/// row repeats the row above, reuses one of a few values, or is fresh.
sweep::PanelSeries arbitrary_series(proptest::Rng& rng) {
  sweep::PanelSeries series;
  series.parameter = static_cast<sweep::SweepParameter>(rng.index(7));
  series.configuration =
      rng.chance(0.5) ? "Hera/XScale" : std::string(rng.index(12), 'x');
  series.rho = arbitrary_double(rng);
  series.kind = rng.chance(0.5) ? core::SolutionKind::kPair
                                : core::SolutionKind::kInterleaved;
  series.max_segments = static_cast<unsigned>(rng.index(16)) + 1;
  const std::size_t size = rng.chance(0.3) ? rng.index(5) : rng.index(700);
  const double repeat = rng.uniform();
  const double reuse = rng.uniform();
  std::vector<core::PanelPoint> pool(1 + rng.index(6));
  for (core::PanelPoint& point : pool) {
    point.x = arbitrary_double(rng);
    point.primary = arbitrary_solution(rng);
    point.baseline = arbitrary_solution(rng);
  }
  series.points.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (i > 0 && rng.chance(repeat)) {
      series.points[i] = series.points[i - 1];
    } else if (rng.chance(reuse)) {
      series.points[i] = pool[rng.index(pool.size())];
    } else {
      series.points[i].x = arbitrary_double(rng);
      series.points[i].primary = arbitrary_solution(rng);
      series.points[i].baseline = arbitrary_solution(rng);
    }
    // Mix rows field by field, so columns differ in layout.
    if (i > 0 && rng.chance(0.5)) {
      auto* pair = series.points[i].primary.payload_if<core::PairSolution>();
      const auto* above =
          series.points[i - 1].primary.payload_if<core::PairSolution>();
      if (pair != nullptr && above != nullptr) *pair = *above;
    }
  }
  return series;
}

/// A blob of either codec and either payload kind, with the point count
/// an entry decoder is given.
struct Blob {
  std::string bytes;
  bool entry = false;
  std::size_t points = 0;
};

struct BlobGen {
  using Value = Blob;

  Value operator()(proptest::Rng& rng) const {
    Blob blob;
    blob.entry = rng.chance(0.5);
    if (rng.chance(0.3)) {
      const core::Solution solution = arbitrary_solution(rng);
      blob.bytes = blob.entry ? encode_solution_entry(solution)
                              : serialize_solution(solution);
      return blob;
    }
    const sweep::PanelSeries series = arbitrary_series(rng);
    blob.points = series.points.size();
    blob.bytes = blob.entry ? encode_panel_entry(series)
                            : serialize_panel_series(series);
    return blob;
  }

  std::vector<Value> shrink(const Value&) const { return {}; }

  std::string describe(const Value& blob) const {
    return std::string(blob.entry ? "entry" : "canonical blob") + " of " +
           std::to_string(blob.bytes.size()) + " bytes, " +
           std::to_string(blob.points) + " points";
  }
};

/// Decode-then-encode under the blob's codec; throws when the blob does
/// not verify. A solution's canonical blob is the shorter one.
std::string reencode(const Blob& blob) {
  if (blob.entry) {
    if (check_envelope(blob.bytes).kind == PayloadKind::kSolution) {
      return encode_solution_entry(decode_solution_entry(blob.bytes));
    }
    return encode_panel_entry(decode_panel_entry(blob.bytes, blob.points));
  }
  if (blob.bytes.size() == canonical_size(core::Solution{})) {
    return serialize_solution(deserialize_solution(blob.bytes));
  }
  return serialize_panel_series(deserialize_panel_series(blob.bytes));
}

TEST(PropStoreRoundtrip, DecodeThenEncodeIsAFixedPoint) {
  proptest::PropOptions options;
  options.iterations = 300;  // cheap: pure (de)serialization
  proptest::check(
      "reencode(blob) == blob", BlobGen{},
      [](const Blob& blob) { EXPECT_EQ(reencode(blob), blob.bytes); },
      options);
}

struct SeriesGen {
  using Value = sweep::PanelSeries;
  Value operator()(proptest::Rng& rng) const { return arbitrary_series(rng); }
  std::vector<Value> shrink(const Value&) const { return {}; }
  std::string describe(const Value& series) const {
    return std::to_string(series.points.size()) + "-point series";
  }
};

TEST(PropStoreRoundtrip, EntriesDecodeToTheBitsTheyEncode) {
  proptest::PropOptions options;
  options.iterations = 300;
  proptest::check(
      "decode(encode(series)) == series", SeriesGen{},
      [](const sweep::PanelSeries& series) {
        // Compared in the canonical form: every field, bit for bit.
        const sweep::PanelSeries back =
            decode_panel_entry(encode_panel_entry(series),
                               series.points.size());
        EXPECT_EQ(serialize_panel_series(back),
                  serialize_panel_series(series));
        for (const core::PanelPoint& point : series.points) {
          EXPECT_EQ(serialize_solution(decode_solution_entry(
                        encode_solution_entry(point.primary))),
                    serialize_solution(point.primary));
        }
      },
      options);
}

struct SpecGen {
  using Value = engine::ScenarioSpec;
  proptest::ScenarioSpecGen specs;
  Value operator()(proptest::Rng& rng) const {
    engine::ScenarioSpec spec = specs(rng);
    spec.all_panels = true;
    spec.sweep_parameter.reset();
    return spec;
  }
  std::vector<Value> shrink(const Value& spec) const {
    return specs.shrink(spec);
  }
  std::string describe(const Value& spec) const {
    return specs.describe(spec);
  }
};

TEST(PropStoreRoundtrip, EveryBackendAndAxisRoundTripsThroughEntries) {
  proptest::PropOptions options;
  options.iterations = 25;  // each case solves every panel of a backend
  const engine::CampaignRunner runner({.threads = 1});
  proptest::check(
      "decode(encode(panel)) == panel for every backend x axis", SpecGen{},
      [&runner](const engine::ScenarioSpec& spec) {
        const engine::ScenarioResult result = runner.run_one(spec);
        ASSERT_FALSE(result.panels.empty());
        for (const sweep::PanelSeries& panel : result.panels) {
          const std::string entry = encode_panel_entry(panel);
          const sweep::PanelSeries back =
              decode_panel_entry(entry, panel.points.size());
          EXPECT_EQ(serialize_panel_series(back),
                    serialize_panel_series(panel))
              << sweep::to_string(panel.parameter);
          EXPECT_EQ(encode_panel_entry(back), entry);
        }
      },
      options);
}

TEST(PropStoreRoundtrip, AnySingleFlippedBitIsDetected) {
  proptest::PropOptions options;
  options.iterations = 300;
  proptest::check(
      "one flipped bit anywhere -> SerializeError", BlobGen{},
      [](const Blob& blob) {
        // Derive the corruption site from the blob itself so the case
        // stays a pure function of the generator's seed.
        const std::uint64_t h = fnv1a64(blob.bytes);
        Blob corrupt = blob;
        const std::size_t byte = h % corrupt.bytes.size();
        corrupt.bytes[byte] ^= static_cast<char>(1u << ((h >> 32) % 8));
        if (blob.entry) {
          EXPECT_THROW((void)check_envelope(corrupt.bytes), SerializeError)
              << "flipped bit " << ((h >> 32) % 8) << " of byte " << byte
              << " went undetected";
        } else {
          EXPECT_THROW((void)reencode(corrupt), SerializeError)
              << "flipped bit " << ((h >> 32) % 8) << " of byte " << byte
              << " went undetected";
        }
      },
      options);
}

struct BytesGen {
  using Value = std::string;
  Value operator()(proptest::Rng& rng) const {
    std::string bytes(1 + rng.index(rng.chance(0.5) ? 40 : 600), '\0');
    for (char& byte : bytes) byte = static_cast<char>(rng.next_u64());
    return bytes;
  }
  std::vector<Value> shrink(const Value&) const { return {}; }
  std::string describe(const Value& bytes) const {
    return std::to_string(bytes.size()) + " bytes";
  }
};

TEST(PropStoreRoundtrip, LaneHashChangesWithAnySingleFlippedBit) {
  proptest::PropOptions options;
  options.iterations = 300;
  proptest::check(
      "lane_hash64(flip(bytes)) != lane_hash64(bytes)", BytesGen{},
      [](const std::string& bytes) {
        const std::uint64_t h = lane_hash64(bytes);
        // Every bit of a short input; 64 seeded bits of a long one.
        const std::size_t bits = bytes.size() * 8;
        const std::size_t step = bits <= 512 ? 1 : bits / 64 + 1;
        for (std::size_t bit = h % step; bit < bits; bit += step) {
          std::string flipped = bytes;
          flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
          EXPECT_NE(lane_hash64(flipped), h) << "bit " << bit;
        }
      },
      options);
}

TEST(PropStoreRoundtrip, LocalStorePutFetchIsIdentity) {
  const fs::path dir =
      fs::temp_directory_path() / "rexspeed_prop_store_roundtrip";
  fs::remove_all(dir);
  {
    LocalResultStore store(dir);
    sweep::ThreadPool pool(3);
    proptest::PropOptions options;
    options.iterations = 60;  // touches disk per case
    proptest::check(
        "fetch(put(entry)) == entry", SeriesGen{},
        [&](const sweep::PanelSeries& series) {
          const std::string entry = encode_panel_entry(series);
          const std::string key = to_hex(Sha256::of(entry));
          store.put(key, entry, EntryInfo{});
          const auto fetched = store.fetch(key);
          ASSERT_TRUE(fetched.has_value());
          EXPECT_EQ(*fetched, entry);

          // put_many on the pool stores the same bytes under its key.
          PutEntry many;
          many.key = to_hex(Sha256::of("many" + entry));
          many.encode = [&series] { return encode_panel_entry(series); };
          EXPECT_TRUE(
              store.put_many({many}, sweep::make_parallel_build(&pool))
                  .empty());
          EXPECT_EQ(store.fetch(many.key), entry);
        },
        options);
    EXPECT_TRUE(store.verify().empty());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rexspeed::store
