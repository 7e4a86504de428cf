#include "rexspeed/engine/scenario_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "test_util.hpp"

namespace rexspeed::engine {
namespace {

namespace fs = std::filesystem;

/// Each test gets a fresh scratch directory under the system temp dir.
class ScenarioFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rexspeed_scenario_file_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_file(const std::string& filename,
                         const std::string& content) const {
    const fs::path path = dir_ / filename;
    std::ofstream(path) << content;
    return path.string();
  }

  fs::path dir_;
};

void expect_equivalent(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.configuration, b.configuration);
  EXPECT_EQ(a.kind(), b.kind());
  EXPECT_EQ(a.sweep_parameter, b.sweep_parameter);
  EXPECT_EQ(a.all_panels, b.all_panels);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.max_segments, b.max_segments);
  EXPECT_EQ(a.verification_recall, b.verification_recall);
  EXPECT_EQ(a.rho, b.rho);          // same grid: ρ bound...
  EXPECT_EQ(a.points, b.points);    // ...and point count
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.min_rho_fallback, b.min_rho_fallback);
  const core::ModelParams pa = a.resolve_params();
  const core::ModelParams pb = b.resolve_params();
  EXPECT_EQ(pa.lambda_silent, pb.lambda_silent);
  EXPECT_EQ(pa.lambda_failstop, pb.lambda_failstop);
  EXPECT_EQ(pa.checkpoint_s, pb.checkpoint_s);
  EXPECT_EQ(pa.recovery_s, pb.recovery_s);
  EXPECT_EQ(pa.verification_s, pb.verification_s);
  EXPECT_EQ(pa.kappa_mw, pb.kappa_mw);
  EXPECT_EQ(pa.idle_power_mw, pb.idle_power_mw);
  EXPECT_EQ(pa.io_power_mw, pb.io_power_mw);
  EXPECT_EQ(pa.speeds, pb.speeds);
}

TEST(ScenarioWrite, RoundTripsEveryRegistryEntryThroughParseScenario) {
  // The inverse property: write_scenario's output is a valid parse_scenario
  // input that reproduces the spec — kind, grid and resolved params.
  for (const ScenarioSpec& spec : scenario_registry()) {
    SCOPED_TRACE(spec.name);
    const ScenarioSpec parsed = parse_scenario(write_scenario(spec));
    expect_equivalent(parsed, spec);
  }
}

TEST(ScenarioWrite, RoundTripsOverridesAndNonDefaultSettings) {
  const ScenarioSpec spec = parse_scenario(
      "name=tuned config=CoastalSSD/Crusoe rho=2.7182818284590451 points=33 "
      "param=lambda policy=single-speed mode=exact-eval fallback=0 "
      "V=123.456 lambda=3.1e-05 Pio=77");
  expect_equivalent(parse_scenario(write_scenario(spec)), spec);
}

TEST(ScenarioWrite, RoundTripsInterleavedKeys) {
  // The new scenario dimension survives the full cycle in both flavors:
  // a fixed count and a search cap (they are mutually exclusive, so two
  // specs). The default (no interleaved mode) must emit no segments line
  // at all, keeping pre-existing files byte-stable.
  const ScenarioSpec fixed = parse_scenario(
      "name=pinned config=Hera/XScale rho=4 segments=3 param=none");
  expect_equivalent(parse_scenario(write_scenario(fixed)), fixed);
  EXPECT_NE(write_scenario(fixed).find("segments=3\n"), std::string::npos);

  const ScenarioSpec searched = parse_scenario(
      "name=searched config=Hera/XScale rho=5 max_segments=8 "
      "param=segments lambda=0.001 V=1");
  expect_equivalent(parse_scenario(write_scenario(searched)), searched);
  EXPECT_NE(write_scenario(searched).find("max_segments=8\n"),
            std::string::npos);

  EXPECT_EQ(write_scenario(scenario_by_name("fig02")).find("segments"),
            std::string::npos);
}

TEST(ScenarioWrite, RoundTripsVerificationRecall) {
  // The simulate-only dimension survives the full cycle; the default
  // (guaranteed verifications) emits no line at all, keeping pre-existing
  // files byte-stable.
  const ScenarioSpec spec = parse_scenario(
      "name=sdc config=Hera/XScale verification_recall=0.85 param=none");
  expect_equivalent(parse_scenario(write_scenario(spec)), spec);
  // The value is written in round-tripping %.17g form; assert the key
  // line exists (expect_equivalent above pins the value itself).
  EXPECT_NE(write_scenario(spec).find("verification_recall="),
            std::string::npos);
  EXPECT_EQ(write_scenario(scenario_by_name("fig02"))
                .find("verification_recall"),
            std::string::npos);
}

TEST_F(ScenarioFileTest, VerificationRecallRoundTripsThroughFiles) {
  const std::string path = write_file("sdc.scenario",
                                      "config=Hera/XScale\n"
                                      "param=none\n"
                                      "verification_recall=0.7\n");
  const ScenarioSpec spec = load_scenario_file(path);
  EXPECT_DOUBLE_EQ(spec.verification_recall, 0.7);

  const std::string saved = (dir_ / "resaved_sdc.scenario").string();
  save_scenario_file(spec, saved);
  expect_equivalent(load_scenario_file(saved), spec);

  // Out-of-range values are rejected with the exact file:line.
  const std::string bad = write_file(
      "bad_recall.scenario",
      "config=Hera/XScale\nverification_recall=1.5\n");
  try {
    (void)load_scenario_file(bad);
    FAIL() << "verification_recall=1.5 must throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(bad + ":2"), std::string::npos) << message;
    EXPECT_NE(message.find("verification_recall"), std::string::npos)
        << message;
  }
}

TEST_F(ScenarioFileTest, LoadsKeysCommentsAndMultiWordDescriptions) {
  const std::string path = write_file("tuned.scenario",
                                      "# a file-based workload\n"
                                      "\n"
                                      "name=tuned\n"
                                      "description=six panels, slow V\n"
                                      "config=Coastal/Crusoe\n"
                                      "param=all   # trailing comment\n"
                                      "points=21\n"
                                      "V=500\n");
  const ScenarioSpec spec = load_scenario_file(path);
  EXPECT_EQ(spec.name, "tuned");
  EXPECT_EQ(spec.description, "six panels, slow V");
  EXPECT_EQ(spec.configuration, "Coastal/Crusoe");
  EXPECT_EQ(spec.kind(), ScenarioKind::kAllSweeps);
  EXPECT_EQ(spec.points, 21u);
  EXPECT_EQ(spec.resolve_params().verification_s, 500.0);
}

TEST_F(ScenarioFileTest, FileStemNamesTheScenarioUnlessOverridden) {
  const std::string anonymous =
      write_file("night_shift.scenario", "config=Hera/XScale\nparam=C\n");
  EXPECT_EQ(load_scenario_file(anonymous).name, "night_shift");

  const std::string named = write_file(
      "other.scenario", "name=explicit\nconfig=Hera/XScale\nparam=C\n");
  EXPECT_EQ(load_scenario_file(named).name, "explicit");
}

TEST_F(ScenarioFileTest, SaveScenarioFileRoundTripsThroughTheLoader) {
  ScenarioSpec spec = scenario_by_name("fig12");
  spec.points = 17;
  spec.overrides.push_back({"Pidle", 42.5});
  const std::string path = (dir_ / "fig12.scenario").string();
  save_scenario_file(spec, path);
  const ScenarioSpec loaded = load_scenario_file(path);
  expect_equivalent(loaded, spec);
  // The line-based format keeps the multi-word description too.
  EXPECT_EQ(loaded.description, spec.description);
}

TEST_F(ScenarioFileTest, HashValuesNeverCorruptTheRoundTrip) {
  // The format has no escaping and '#' starts a comment on load, so
  // identifiers containing it are rejected outright and descriptions
  // containing it are omitted — never silently truncated.
  ScenarioSpec hashed_name = scenario_by_name("fig02");
  hashed_name.name = "exp#1";
  EXPECT_THROW((void)write_scenario(hashed_name), std::invalid_argument);

  ScenarioSpec split_name = scenario_by_name("fig02");
  split_name.name = "two\nlines";  // a reload would parse two entries
  EXPECT_THROW((void)write_scenario(split_name), std::invalid_argument);

  ScenarioSpec newline_description = scenario_by_name("fig02");
  newline_description.description = "line1\nline2";
  const std::string nl_path = (dir_ / "newline.scenario").string();
  save_scenario_file(newline_description, nl_path);
  // Dropped, not written as an unparseable second line.
  EXPECT_TRUE(load_scenario_file(nl_path).description.empty());

  ScenarioSpec hashed_description = scenario_by_name("fig02");
  hashed_description.description = "run #2 nightly";
  const std::string path = (dir_ / "hashed.scenario").string();
  save_scenario_file(hashed_description, path);
  const ScenarioSpec loaded = load_scenario_file(path);
  EXPECT_EQ(loaded.name, "fig02");
  EXPECT_TRUE(loaded.description.empty());  // dropped, not "run"
}

TEST_F(ScenarioFileTest, MalformedFilesCiteFileAndLine) {
  const auto message_of = [](const std::string& path) {
    try {
      (void)load_scenario_file(path);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };

  const std::string unknown =
      write_file("unknown.scenario", "config=Hera/XScale\nwarp_factor=9\n");
  std::string message = message_of(unknown);
  EXPECT_NE(message.find(unknown + ":2"), std::string::npos) << message;
  EXPECT_NE(message.find("warp_factor"), std::string::npos) << message;

  const std::string bad_value =
      write_file("bad_value.scenario",
                 "# header\nconfig=Hera/XScale\n\nrho=fast\n");
  message = message_of(bad_value);
  EXPECT_NE(message.find(bad_value + ":4"), std::string::npos) << message;

  const std::string no_equals =
      write_file("no_equals.scenario", "config=Hera/XScale\njust words\n");
  message = message_of(no_equals);
  EXPECT_NE(message.find(no_equals + ":2"), std::string::npos) << message;

  const std::string empty = write_file("empty.scenario", "# only comments\n");
  message = message_of(empty);
  EXPECT_NE(message.find(empty), std::string::npos) << message;
  EXPECT_NE(message.find("empty"), std::string::npos) << message;

  EXPECT_THROW((void)load_scenario_file((dir_ / "missing.scenario").string()),
               std::invalid_argument);
}

TEST_F(ScenarioFileTest, UnwritableValuesAreRejectedWithFileAndLine) {
  // Whatever loads must write back: a name or config with inner
  // whitespace (write_scenario refuses it), an empty name (it would come
  // back as the file stem) and a point count past the size_t cast are
  // rejected at load, citing the line.
  for (const std::string& entry :
       {std::string("name=two words"), std::string("config=Hera /XScale"),
        std::string("name="), std::string("points=1e300")}) {
    SCOPED_TRACE(entry);
    const std::string path =
        write_file("bad.scenario", "config=Hera/XScale\n" + entry + "\n");
    try {
      (void)load_scenario_file(path);
      ADD_FAILURE() << "loaded";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(path + ":2", 0), 0u)
          << error.what();
    }
  }
  const std::string empty = write_file("empty.scenario", "\n# nothing\n");
  try {
    (void)load_scenario_file(empty);
    ADD_FAILURE() << "loaded an empty file";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind(empty + ":", 0), 0u)
        << error.what();
  }
}

TEST_F(ScenarioFileTest, NonFiniteNumbersAreRejectedWithFileAndLine) {
  const auto message_of = [](const std::string& path) {
    try {
      (void)load_scenario_file(path);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };

  // std::stod overflows 1e999 to +inf and throws std::out_of_range —
  // which used to escape as a bare "stod" message with no file context.
  const std::string overflow = write_file(
      "overflow.scenario", "config=Hera/XScale\nlambda=1e999\n");
  std::string message = message_of(overflow);
  EXPECT_NE(message.find(overflow + ":2"), std::string::npos) << message;
  EXPECT_NE(message.find("1e999"), std::string::npos) << message;

  // "inf" and "nan" PARSE successfully under std::stod; a non-finite
  // model parameter (or grid size) must be rejected, not propagated into
  // the solver.
  const std::string inf_value =
      write_file("inf.scenario", "config=Hera/XScale\nrho=inf\n");
  message = message_of(inf_value);
  EXPECT_NE(message.find(inf_value + ":2"), std::string::npos) << message;
  EXPECT_NE(message.find("inf"), std::string::npos) << message;

  const std::string nan_value =
      write_file("nan.scenario", "config=Hera/XScale\nV=nan\n");
  message = message_of(nan_value);
  EXPECT_NE(message.find(nan_value + ":2"), std::string::npos) << message;

  const std::string neg_inf =
      write_file("neg_inf.scenario", "config=Hera/XScale\nlambda=-inf\n");
  message = message_of(neg_inf);
  EXPECT_NE(message.find(neg_inf + ":2"), std::string::npos) << message;

  // points=inf previously survived stod and hit an undefined
  // double→size_t cast downstream.
  const std::string inf_points =
      write_file("inf_points.scenario", "config=Hera/XScale\npoints=inf\n");
  message = message_of(inf_points);
  EXPECT_NE(message.find(inf_points + ":2"), std::string::npos) << message;

  // Trailing junk after a valid prefix is malformed, not truncated.
  const std::string trailing =
      write_file("trailing.scenario", "config=Hera/XScale\nrho=3.0x\n");
  message = message_of(trailing);
  EXPECT_NE(message.find(trailing + ":2"), std::string::npos) << message;
}

TEST_F(ScenarioFileTest, CacheOptOutRoundTripsThroughFiles) {
  const std::string path = write_file(
      "uncached.scenario", "config=Hera/XScale\nparam=rho\ncache=0\n");
  const ScenarioSpec spec = load_scenario_file(path);
  EXPECT_FALSE(spec.cache);

  // write→load is the identity; the default (cache=1) emits no line so
  // pre-existing files stay byte-identical.
  const std::string saved = (dir_ / "resaved.scenario").string();
  save_scenario_file(spec, saved);
  EXPECT_FALSE(load_scenario_file(saved).cache);
  EXPECT_NE(write_scenario(spec).find("cache=0"), std::string::npos);

  ScenarioSpec cached = spec;
  cached.cache = true;
  EXPECT_EQ(write_scenario(cached).find("cache="), std::string::npos);

  const std::string bad = write_file(
      "bad_cache.scenario", "config=Hera/XScale\ncache=sometimes\n");
  EXPECT_THROW((void)load_scenario_file(bad), std::invalid_argument);
}

TEST_F(ScenarioFileTest, InterleavedKeysRoundTripThroughFilesAndAreValidated) {
  // Happy path: both interleaved panel axes load from a file and survive
  // save_scenario_file → load_scenario_file.
  const std::string path = write_file("night_crossval.scenario",
                                      "config=Hera/XScale\n"
                                      "rho=5\n"
                                      "max_segments=8   # search cap\n"
                                      "param=segments\n"
                                      "lambda=1e-3\n"
                                      "V=1\n");
  const ScenarioSpec spec = load_scenario_file(path);
  EXPECT_EQ(spec.name, "night_crossval");
  EXPECT_TRUE(spec.interleaved());
  EXPECT_EQ(spec.max_segments, 8u);
  EXPECT_EQ(spec.sweep_parameter, sweep::SweepParameter::kSegments);

  const std::string saved = (dir_ / "resaved.scenario").string();
  save_scenario_file(spec, saved);
  expect_equivalent(load_scenario_file(saved), spec);

  // Out-of-range: segments=0 is rejected with the exact file:line.
  const std::string zero = write_file(
      "zero.scenario", "config=Hera/XScale\nsegments=0\n");
  try {
    (void)load_scenario_file(zero);
    FAIL() << "segments=0 must throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(zero + ":2"), std::string::npos) << message;
    EXPECT_NE(message.find("segments"), std::string::npos) << message;
  }

  // Cross-field validation failures cite the file too.
  const std::string axis_only = write_file(
      "axis_only.scenario", "config=Hera/XScale\nparam=segments\n");
  try {
    (void)load_scenario_file(axis_only);
    FAIL() << "param=segments without interleaved mode must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(axis_only),
              std::string::npos);
  }
}

TEST_F(ScenarioFileTest, DuplicateKeysAreRejectedWithBothLines) {
  // A repeated key would silently keep only the later value (and apply a
  // model override twice); the loader rejects it citing both lines.
  const std::string dup = write_file("dup.scenario",
                                     "config=Hera/XScale\n"
                                     "max_segments=4\n"
                                     "# comment line\n"
                                     "max_segments=8\n");
  try {
    (void)load_scenario_file(dup);
    FAIL() << "duplicate keys must throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(dup + ":4"), std::string::npos) << message;
    EXPECT_NE(message.find("duplicate key 'max_segments'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }

  // Override keys too — V=500 twice is a lost value, not a merge.
  const std::string dup_override = write_file(
      "dup_override.scenario", "config=Hera/XScale\nV=500\nV=600\n");
  EXPECT_THROW((void)load_scenario_file(dup_override),
               std::invalid_argument);

  // parse_scenario keeps its lenient last-wins semantics for repeated
  // override keys, but the spec then carries ONE override per key — so
  // the program's own save output is always loadable again.
  const ScenarioSpec spec =
      parse_scenario("name=dup config=Hera/XScale V=500 V=600");
  ASSERT_EQ(spec.overrides.size(), 1u);
  EXPECT_EQ(spec.overrides[0].value, 600.0);
  const std::string saved = (dir_ / "dedup.scenario").string();
  save_scenario_file(spec, saved);
  expect_equivalent(load_scenario_file(saved), spec);
}

TEST_F(ScenarioFileTest, DirectoryLoadsInSortedOrderIgnoringOtherFiles) {
  write_file("zeta.scenario", "config=Hera/XScale\nparam=C\n");
  write_file("alpha.scenario", "config=Atlas/Crusoe\nparam=V\n");
  write_file("mid.scenario", "config=Coastal/XScale\nparam=rho\n");
  write_file("notes.txt", "not a scenario\n");
  write_file("README", "also not a scenario\n");

  const auto specs = load_scenario_dir(dir_.string());
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "alpha");
  EXPECT_EQ(specs[1].name, "mid");
  EXPECT_EQ(specs[2].name, "zeta");
}

TEST_F(ScenarioFileTest, DirectoryErrorsAreExplicit) {
  EXPECT_THROW((void)load_scenario_dir((dir_ / "nope").string()),
               std::invalid_argument);

  write_file("a.scenario", "name=twin\nconfig=Hera/XScale\n");
  write_file("b.scenario", "name=twin\nconfig=Atlas/Crusoe\n");
  try {
    (void)load_scenario_dir(dir_.string());
    FAIL() << "duplicate names must throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("twin"), std::string::npos);
  }

  // One malformed file poisons the whole directory load, with its line.
  write_file("c.scenario", "rho=\n");
  EXPECT_THROW((void)load_scenario_dir(dir_.string()),
               std::invalid_argument);
}

TEST_F(ScenarioFileTest, MergeWithRegistryReplacesByNameAndAppends) {
  write_file("fig02.scenario",
             "config=Hera/XScale\nparam=C\npoints=5\n");  // overrides fig02
  write_file("extra.scenario", "config=Coastal/Crusoe\nparam=lambda\n");
  const auto merged = merge_with_registry(load_scenario_dir(dir_.string()));

  ASSERT_EQ(merged.size(), scenario_registry().size() + 1);
  EXPECT_EQ(merged.front().name, "fig02");
  EXPECT_EQ(merged.front().configuration, "Hera/XScale");  // replaced
  EXPECT_EQ(merged.front().points, 5u);
  EXPECT_EQ(merged.back().name, "extra");  // appended

  // No extras: the registry comes back untouched.
  EXPECT_EQ(merge_with_registry({}).size(), scenario_registry().size());
}

}  // namespace
}  // namespace rexspeed::engine
