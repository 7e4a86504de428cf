// Seeded mutation fuzzing of the store's entry decoder: the bytes the
// store reads from disk (and the coordinator from a worker's pipe). Each
// case takes a valid entry from a corpus — real panels of every backend,
// a solution, and panels holding a column in each of the four layouts —
// applies a few random mutations (bit flips, byte and u32 overwrites with
// boundary values, inserts, deletes, truncation, splices from another
// entry) and, most of the time, reseals the checksum so the mutant gets
// past check_envelope into the column decoder. On ANY input the read
// path — check_envelope, then decode_panel_entry or decode_solution_entry
// — must either throw SerializeError or return a value that encodes back
// to exactly the input bytes. Anything else (another exception, a crash,
// an out-of-bounds read under ASan) fails.
//
// Budget: 20000 cases by default (set below; REXSPEED_PROP_ITERS
// overrides it, as for every property); the suite carries the ctest label
// `fuzz`. A failure prints a one-line seed repro.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/serialize.hpp"
#include "support/proptest.hpp"

namespace rexspeed::store {
namespace {

/// One valid entry and the point count its reader expects (0 for a
/// solution).
struct Seed {
  std::string bytes;
  std::size_t points = 0;
};

/// A 40-point panel whose x column takes `layout` (0 raw, 1 runs,
/// 2 repeat, 3 dict) and whose other columns vary between layouts too.
sweep::PanelSeries layout_panel(int layout) {
  sweep::PanelSeries series;
  series.configuration = "Atlas/Crusoe";
  series.points.resize(40);
  for (std::size_t i = 0; i < series.points.size(); ++i) {
    core::PanelPoint& point = series.points[i];
    const double row = static_cast<double>(i);
    point.x = layout == 0   ? row
              : layout == 1 ? 2.5
              : layout == 2 ? static_cast<double>(i / 4)
                            : static_cast<double>(i % 3);
    point.primary.pair().w_opt = row * 1.5;
    point.primary.pair().sigma1_index = static_cast<int>(i / 10) - 1;
    // Baselines alternate kinds, so the kind column and both payloads'
    // columns vary between layouts too.
    if (i % 3 == 0) {
      point.baseline.pair().feasible = i % 2 == 0;
    } else {
      core::InterleavedSolution pattern;
      pattern.segments = static_cast<unsigned>(i % 3);
      point.baseline = core::Solution::from_interleaved(pattern);
    }
  }
  return series;
}

const std::vector<Seed>& corpus() {
  static const std::vector<Seed> seeds = [] {
    std::vector<Seed> out;
    // Real panels: every registry scenario of a backend family, short.
    std::vector<engine::ScenarioSpec> specs;
    for (const engine::ScenarioSpec& spec : engine::scenario_registry()) {
      if (spec.name == "fig02" || spec.name == "fig08" ||
          spec.name == "exact_rho" || spec.name == "interleaved_rho" ||
          spec.name == "interleaved_segments" || spec.name == "recall_rho") {
        specs.push_back(spec);
        specs.back().points = 13;
      }
    }
    const engine::CampaignRunner runner({.threads = 1});
    for (const engine::ScenarioResult& result : runner.run(specs)) {
      for (const sweep::PanelSeries& panel : result.panels) {
        out.push_back({encode_panel_entry(panel), panel.points.size()});
      }
      if (!result.panels.empty()) {
        out.push_back(
            {encode_solution_entry(result.panels.front().points[3].primary),
             0});
      }
    }
    for (int layout = 0; layout < 4; ++layout) {
      const sweep::PanelSeries series = layout_panel(layout);
      out.push_back({encode_panel_entry(series), series.points.size()});
    }
    return out;
  }();
  return seeds;
}

struct Mutant {
  std::string bytes;
  std::size_t points = 0;
  std::string steps;  ///< what was done, for the counterexample
};

/// Little-endian u32 at `offset` (which must leave room for it).
void put_u32(std::string& bytes, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

struct MutantGen {
  using Value = Mutant;

  Mutant operator()(proptest::Rng& rng) const {
    const std::vector<Seed>& seeds = corpus();
    const Seed& seed = seeds[rng.index(seeds.size())];
    Mutant m{seed.bytes, seed.points, ""};
    // The trailer comes off first and is put back after, resealed or not.
    std::string trailer = m.bytes.substr(m.bytes.size() - 8);
    m.bytes.resize(m.bytes.size() - 8);
    const std::size_t mutations = 1 + rng.index(4);
    for (std::size_t k = 0; k < mutations; ++k) {
      std::string& b = m.bytes;
      const std::size_t at = b.empty() ? 0 : rng.index(b.size());
      switch (rng.index(8)) {
        case 0:
          if (b.empty()) break;
          b[at] ^= static_cast<char>(1u << rng.index(8));
          m.steps += "flip@" + std::to_string(at) + " ";
          break;
        case 1: {
          if (b.empty()) break;
          const char values[] = {0, 1, 2, 3, 4, 0x7f, char(0x80), char(0xff)};
          b[at] = values[rng.index(sizeof values)];
          m.steps += "byte@" + std::to_string(at) + " ";
          break;
        }
        case 2: {
          if (b.size() < 4) break;
          const std::size_t where = rng.index(b.size() - 3);
          const std::uint32_t n = static_cast<std::uint32_t>(m.points);
          const std::uint32_t values[] = {0,     1,     n - 1,      n,
                                          n + 1, 255,   256,        0xffffffffu,
                                          40,    2 * n, 0x80000000u};
          put_u32(b, where, values[rng.index(std::size(values))]);
          m.steps += "u32@" + std::to_string(where) + " ";
          break;
        }
        case 3:
          b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<char>(rng.next_u64()));
          m.steps += "insert@" + std::to_string(at) + " ";
          break;
        case 4:
          if (b.empty()) break;
          b.erase(at, 1 + rng.index(std::min<std::size_t>(16, b.size() - at)));
          m.steps += "erase@" + std::to_string(at) + " ";
          break;
        case 5:
          b.resize(at);
          m.steps += "truncate@" + std::to_string(at) + " ";
          break;
        case 6: {
          const Seed& other = seeds[rng.index(seeds.size())];
          const std::size_t from = rng.index(other.bytes.size());
          const std::size_t length =
              1 + rng.index(std::min<std::size_t>(64, other.bytes.size() - from));
          b.replace(at, std::min(length, b.size() - at),
                    other.bytes.substr(from, length));
          m.steps += "splice@" + std::to_string(at) + " ";
          break;
        }
        default: {
          if (b.empty()) break;
          const std::size_t length =
              1 + rng.index(std::min<std::size_t>(24, b.size() - at));
          b.insert(at, b.substr(at, length));
          m.steps += "dup@" + std::to_string(at) + " ";
          break;
        }
      }
    }
    if (rng.chance(0.85)) {
      std::uint64_t checksum = lane_hash64(m.bytes);
      for (char& byte : trailer) {
        byte = static_cast<char>(checksum & 0xff);
        checksum >>= 8;
      }
      m.steps += "resealed";
    }
    m.bytes += trailer;
    return m;
  }

  std::vector<Mutant> shrink(const Mutant&) const { return {}; }

  std::string describe(const Mutant& m) const {
    return std::to_string(m.bytes.size()) + " bytes, " +
           std::to_string(m.points) + " points expected; " + m.steps;
  }
};

/// The store's read path over one input: the encoding of what it decoded,
/// or nullopt when it was rejected with SerializeError.
std::optional<std::string> read_and_reencode(const Mutant& m) {
  try {
    if (check_envelope(m.bytes).kind == PayloadKind::kSolution) {
      return encode_solution_entry(decode_solution_entry(m.bytes));
    }
    return encode_panel_entry(decode_panel_entry(m.bytes, m.points));
  } catch (const SerializeError&) {
    return std::nullopt;
  }
}

TEST(FuzzEntryDecoder, EveryInputIsRejectedOrReencodesExactly) {
  proptest::PropOptions options;
  options.iterations = 20000;
  std::size_t accepted = 0;
  proptest::check(
      "decode(mutant) throws SerializeError or encodes back to mutant",
      MutantGen{},
      [&accepted](const Mutant& m) {
        if (const std::optional<std::string> back = read_and_reencode(m)) {
          ++accepted;
          EXPECT_EQ(*back, m.bytes);
        }
      },
      options);
  // The intact corpus itself is accepted, and round-trips.
  for (const Seed& seed : corpus()) {
    EXPECT_EQ(read_and_reencode({seed.bytes, seed.points, ""}), seed.bytes);
  }
  std::printf("[fuzz] %zu of %zu mutants decoded and re-encoded exactly\n",
              accepted, proptest::resolved_iterations(options));
}

}  // namespace
}  // namespace rexspeed::store
