// Property: write_scenario is a faithful inverse of parse_scenario — for
// ANY valid ScenarioSpec, serializing it to the key=value format and
// parsing the result reproduces the spec field for field (including the
// mode=recall / verification_recall combination and the resolved model
// parameters). This is the invariant that makes scenario files a safe
// interchange format: nothing a spec can express is lost on disk.

#include <gtest/gtest.h>

#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/scenario_file.hpp"
#include "support/proptest.hpp"

namespace rexspeed::engine {
namespace {

void expect_specs_equivalent(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(a.configuration, b.configuration);
  EXPECT_EQ(a.rho, b.rho);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.min_rho_fallback, b.min_rho_fallback);
  EXPECT_EQ(a.sweep_parameter, b.sweep_parameter);
  EXPECT_EQ(a.all_panels, b.all_panels);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.max_segments, b.max_segments);
  EXPECT_EQ(a.recall_mode, b.recall_mode);
  EXPECT_EQ(a.verification_recall, b.verification_recall);
  EXPECT_EQ(a.cache, b.cache);
  // Overrides may be re-ordered or merged by a serializer in principle;
  // what must survive is the resolved model.
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
}

TEST(PropScenarioRoundtrip, WriteThenParseIsIdentity) {
  proptest::PropOptions options;
  options.iterations = 200;  // cheap: no solves, just (de)serialization
  proptest::check(
      "parse_scenario(write_scenario(spec)) == spec",
      proptest::ScenarioSpecGen{},
      [](const ScenarioSpec& spec) {
        const std::string text = write_scenario(spec);
        const ScenarioSpec reparsed = parse_scenario(text);
        expect_specs_equivalent(spec, reparsed);
        // The round trip is also a fixed point: writing the reparsed spec
        // reproduces the byte stream (the golden-file stability contract).
        EXPECT_EQ(write_scenario(reparsed), text);
      },
      options);
}

}  // namespace
}  // namespace rexspeed::engine
