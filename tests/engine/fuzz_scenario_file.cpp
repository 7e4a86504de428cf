// Seeded mutation fuzzing of the scenario-file loader: the text a user
// hands `rexspeed campaign --scenario-dir`. Each case takes the
// write_scenario text of a registry scenario, applies a few random
// mutations (byte flips, dropped or duplicated lines, key and value
// splices from other lines, inserted '=', '#' and whitespace, and values
// replaced by overflowing or non-finite numbers) and loads the result.
// On ANY input load_scenario_file must either throw std::invalid_argument
// whose message starts with the file's path, or return a spec that
// write_scenario can write and whose write → load → write round trip is
// a fixed point (the second text equals the first). Anything else — a
// write_scenario that refuses what the loader accepted, another exception
// type, a crash, or undefined behaviour under UBSan — fails.
//
// Budget: 5000 cases by default (set below; REXSPEED_PROP_ITERS overrides
// it, as for every property); the suite carries the ctest label `fuzz`.
// A failure prints a one-line seed repro.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/scenario_file.hpp"
#include "support/proptest.hpp"

namespace rexspeed::engine {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

/// The write_scenario text of every registry scenario, one per entry.
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> texts = [] {
    std::vector<std::string> out;
    for (const ScenarioSpec& spec : scenario_registry()) {
      out.push_back(write_scenario(spec));
    }
    return out;
  }();
  return texts;
}

/// Every line of the corpus, the pool key and value splices draw from.
const std::vector<std::string>& corpus_lines() {
  static const std::vector<std::string> lines = [] {
    std::vector<std::string> out;
    for (const std::string& text : corpus()) {
      for (const std::string& line : split_lines(text)) out.push_back(line);
    }
    return out;
  }();
  return lines;
}

struct Mutant {
  std::string text;
  std::string steps;  ///< what was done, for the counterexample
};

struct MutantGen {
  using Value = Mutant;

  Mutant operator()(proptest::Rng& rng) const {
    const std::vector<std::string>& seeds = corpus();
    const std::vector<std::string>& pool = corpus_lines();
    Mutant m{seeds[rng.index(seeds.size())], ""};
    const std::size_t mutations = 1 + rng.index(4);
    for (std::size_t k = 0; k < mutations; ++k) {
      std::vector<std::string> lines = split_lines(m.text);
      const std::size_t row = lines.empty() ? 0 : rng.index(lines.size());
      const std::string& donor = pool[rng.index(pool.size())];
      switch (rng.index(8)) {
        case 0: {  // flip one bit of one byte
          if (m.text.empty()) break;
          const std::size_t at = rng.index(m.text.size());
          m.text[at] ^= static_cast<char>(1u << rng.index(8));
          m.steps += "flip@" + std::to_string(at) + " ";
          continue;
        }
        case 1:  // drop a line
          if (lines.empty()) break;
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(row));
          m.steps += "drop#" + std::to_string(row) + " ";
          break;
        case 2:  // duplicate a line
          if (lines.empty()) break;
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(row),
                       lines[row]);
          m.steps += "dup#" + std::to_string(row) + " ";
          break;
        case 3: {  // another line's key in front of this line's value
          if (lines.empty()) break;
          const std::size_t eq = lines[row].find('=');
          const std::size_t donor_eq = donor.find('=');
          lines[row] = donor.substr(0, donor_eq) +
                       (eq == std::string::npos ? "=" + lines[row]
                                                : lines[row].substr(eq));
          m.steps += "key#" + std::to_string(row) + " ";
          break;
        }
        case 4: {  // this line's key with another line's value
          if (lines.empty()) break;
          const std::size_t eq = lines[row].find('=');
          const std::size_t donor_eq = donor.find('=');
          lines[row] = lines[row].substr(0, eq) + "=" +
                       (donor_eq == std::string::npos
                            ? donor
                            : donor.substr(donor_eq + 1));
          m.steps += "value#" + std::to_string(row) + " ";
          break;
        }
        case 5: {  // a value that overflows, underflows or is not finite
          if (lines.empty()) break;
          static const char* const kNumbers[] = {
              "1e999",    "-1e999", "1e-400", "inf",   "-inf",
              "nan",      "1e300",  "-1e300", "0",     "-0",
              "0x1p1024", "1e19",   "18446744073709551616",
              "4294967297", "257",  "9007199254740993", "1.5", "-1"};
          const std::size_t eq = lines[row].find('=');
          lines[row] = lines[row].substr(0, eq) + "=" +
                       kNumbers[rng.index(std::size(kNumbers))];
          m.steps += "number#" + std::to_string(row) + " ";
          break;
        }
        default: {  // insert '=', '#' or whitespace at a random byte
          static const char kInserts[] = {'=', '#', ' ', '\t', '\r', '\n'};
          const std::size_t at = rng.index(m.text.size() + 1);
          m.text.insert(m.text.begin() + static_cast<std::ptrdiff_t>(at),
                        kInserts[rng.index(sizeof kInserts)]);
          m.steps += "insert@" + std::to_string(at) + " ";
          continue;
        }
      }
      m.text = join_lines(lines);
    }
    return m;
  }

  std::vector<Mutant> shrink(const Mutant&) const { return {}; }

  std::string describe(const Mutant& m) const {
    std::string shown;
    for (const char c : m.text) {
      shown += c == '\n' ? std::string("\\n") : std::string(1, c);
    }
    return m.steps + "| " + shown;
  }
};

class FuzzScenarioFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rexspeed_fuzz_scenario_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes `text` to `filename` in the scratch directory; its path.
  std::string write_file(const std::string& filename,
                         const std::string& text) const {
    const fs::path path = dir_ / filename;
    std::ofstream(path, std::ios::binary) << text;
    return path.string();
  }

  fs::path dir_;
};

TEST_F(FuzzScenarioFile, EveryFileIsRejectedWithItsPathOrRoundTrips) {
  proptest::PropOptions options;
  options.iterations = 5000;
  std::size_t loaded = 0;
  proptest::check(
      "load(mutant) throws invalid_argument citing the path, or write → "
      "load → write is a fixed point",
      MutantGen{},
      [&](const Mutant& m) {
        const std::string path = write_file("mutant.scenario", m.text);
        ScenarioSpec spec;
        try {
          spec = load_scenario_file(path);
        } catch (const std::invalid_argument& error) {
          EXPECT_EQ(std::string(error.what()).rfind(path, 0), 0u)
              << error.what();
          return;
        }
        ++loaded;
        const std::string first = write_scenario(spec);
        const std::string again = write_file("again.scenario", first);
        EXPECT_EQ(write_scenario(load_scenario_file(again)), first);
      },
      options);
  // The intact corpus itself loads and round-trips.
  for (const std::string& text : corpus()) {
    const std::string path = write_file("seed.scenario", text);
    EXPECT_EQ(write_scenario(load_scenario_file(path)), text);
  }
  std::printf("[fuzz] %zu of %zu mutants loaded and round-tripped\n", loaded,
              proptest::resolved_iterations(options));
}

}  // namespace
}  // namespace rexspeed::engine
