// Properties of the result-store serialization and the local tier:
//
//   1. serialize/deserialize is a fixed point for ANY Solution and ANY
//      PanelSeries — including non-finite doubles, whose bit patterns
//      must survive untouched (the cached ≡ recomputed contract is byte
//      equality, so "round-trips up to tolerance" is not good enough);
//   2. a single flipped bit ANYWHERE in a blob is detected — the
//      deserializer throws, it never silently returns altered values;
//   3. put → fetch through a LocalResultStore is the identity on blobs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/result_store.hpp"
#include "rexspeed/store/serialize.hpp"
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
    case 4:
      return std::numeric_limits<double>::quiet_NaN();
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
    solution.kind = core::SolutionKind::kPair;
  } else {
    solution.kind = core::SolutionKind::kInterleaved;
  }
  solution.pair = arbitrary_pair(rng);
  solution.interleaved.feasible = rng.chance(0.5);
  solution.interleaved.segments = static_cast<unsigned>(rng.index(16)) + 1;
  solution.interleaved.sigma1 = arbitrary_double(rng);
  solution.interleaved.sigma2 = arbitrary_double(rng);
  solution.interleaved.w_opt = arbitrary_double(rng);
  solution.interleaved.energy_overhead = arbitrary_double(rng);
  solution.interleaved.time_overhead = arbitrary_double(rng);
  solution.used_fallback = rng.chance(0.5);
  return solution;
}

struct BlobGen {
  using Value = std::string;

  Value operator()(proptest::Rng& rng) const {
    if (rng.chance(0.4)) return serialize_solution(arbitrary_solution(rng));
    sweep::PanelSeries series;
    series.parameter = static_cast<sweep::SweepParameter>(rng.index(7));
    series.configuration =
        rng.chance(0.5) ? "Hera/XScale" : std::string(rng.index(12), 'x');
    series.rho = arbitrary_double(rng);
    series.kind = rng.chance(0.5) ? core::SolutionKind::kPair
                                  : core::SolutionKind::kInterleaved;
    series.max_segments = static_cast<unsigned>(rng.index(16)) + 1;
    series.points.resize(rng.index(5));
    for (auto& point : series.points) {
      point.x = arbitrary_double(rng);
      point.primary = arbitrary_solution(rng);
      point.baseline = arbitrary_solution(rng);
    }
    return serialize_panel_series(series);
  }

  std::vector<Value> shrink(const Value&) const { return {}; }

  std::string describe(const Value& blob) const {
    const bool solution =
        check_envelope(blob).kind == PayloadKind::kSolution;
    return "blob of " + std::to_string(blob.size()) + " bytes, kind " +
           (solution ? "solution" : "panel");
  }
};

/// Deserialize-then-reserialize under either payload codec; throws when
/// the blob does not verify.
std::string reserialize(const std::string& blob) {
  if (check_envelope(blob).kind == PayloadKind::kSolution) {
    return serialize_solution(deserialize_solution(blob));
  }
  return serialize_panel_series(deserialize_panel_series(blob));
}

TEST(PropStoreRoundtrip, SerializeDeserializeIsAFixedPoint) {
  proptest::PropOptions options;
  options.iterations = 300;  // cheap: pure (de)serialization
  proptest::check(
      "reserialize(blob) == blob", BlobGen{},
      [](const std::string& blob) { EXPECT_EQ(reserialize(blob), blob); },
      options);
}

TEST(PropStoreRoundtrip, AnySingleFlippedBitIsDetected) {
  proptest::PropOptions options;
  options.iterations = 300;
  proptest::check(
      "one flipped bit anywhere -> SerializeError", BlobGen{},
      [](const std::string& blob) {
        // Derive the corruption site from the blob itself so the case
        // stays a pure function of the generator's seed.
        const std::uint64_t h = fnv1a64(blob);
        std::string corrupt = blob;
        const std::size_t byte = h % corrupt.size();
        corrupt[byte] ^= static_cast<char>(1u << ((h >> 32) % 8));
        EXPECT_THROW((void)reserialize(corrupt), SerializeError)
            << "flipped bit " << ((h >> 32) % 8) << " of byte " << byte
            << " went undetected";
      },
      options);
}

TEST(PropStoreRoundtrip, LocalStorePutFetchIsIdentity) {
  const fs::path dir =
      fs::temp_directory_path() / "rexspeed_prop_store_roundtrip";
  fs::remove_all(dir);
  {
    LocalResultStore store(dir);
    proptest::PropOptions options;
    options.iterations = 60;  // touches disk per case
    proptest::check(
        "fetch(put(blob)) == blob", BlobGen{},
        [&store](const std::string& blob) {
          const std::string key = to_hex(Sha256::of(blob));
          store.put(key, blob, EntryInfo{});
          const auto fetched = store.fetch(key);
          ASSERT_TRUE(fetched.has_value());
          EXPECT_EQ(*fetched, blob);
        },
        options);
    EXPECT_TRUE(store.verify().empty());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rexspeed::store
