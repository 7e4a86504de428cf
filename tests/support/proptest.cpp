#include "support/proptest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "rexspeed/engine/scenario_file.hpp"
#include "rexspeed/platform/configuration.hpp"

namespace rexspeed::proptest {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  // 53 random mantissa bits — every double in [0, 1) at full precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Rng::log_uniform(double lo, double hi) {
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

std::size_t Rng::index(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) %
         n;  // the modulo only guards the uniform() == nextafter(1) edge
}

namespace {

/// Strict unsigned parse of an environment variable; nullopt when unset,
/// empty or malformed (a typo must not silently pin every property run).
std::optional<std::uint64_t> env_u64(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::size_t resolved_iterations(const PropOptions& options) {
  if (const auto iters = env_u64("REXSPEED_PROP_ITERS")) {
    return static_cast<std::size_t>(std::max<std::uint64_t>(*iters, 1));
  }
  return options.iterations;
}

std::uint64_t resolved_seed(const PropOptions& options) {
  if (const auto seed = env_u64("REXSPEED_PROP_SEED")) return *seed;
  return options.seed;
}

namespace detail {

bool run_captured(const std::function<void()>& body, std::string* failure) {
  ::testing::TestPartResultArray results;
  {
    ::testing::ScopedFakeTestPartResultReporter reporter(
        ::testing::ScopedFakeTestPartResultReporter::INTERCEPT_ALL_THREADS,
        &results);
    try {
      body();
    } catch (const std::exception& error) {
      if (failure) *failure = error.what();
      return false;
    } catch (...) {
      if (failure) *failure = "non-standard exception";
      return false;
    }
  }
  for (int i = 0; i < results.size(); ++i) {
    if (results.GetTestPartResult(i).failed()) {
      if (failure) *failure = results.GetTestPartResult(i).summary();
      return false;
    }
  }
  return true;
}

void report_falsified(const char* property, std::size_t iteration,
                      std::uint64_t case_seed, std::size_t shrink_steps,
                      const std::string& description) {
  std::fprintf(stderr,
               "[proptest] property '%s' falsified at iteration %zu "
               "(%zu shrink steps)\n",
               property, iteration, shrink_steps);
  // The single-line deterministic repro: the seed regenerates the original
  // failing case and the (deterministic) shrink re-finds this minimum.
  std::fprintf(stderr,
               "[proptest] repro: REXSPEED_PROP_SEED=%llu "
               "REXSPEED_PROP_ITERS=1 <test binary> "
               "--gtest_filter=<this test>\n",
               static_cast<unsigned long long>(case_seed));
  std::fprintf(stderr, "[proptest] counterexample: %s\n",
               description.c_str());
}

}  // namespace detail

// ---------------------------------------------------------------- domain

core::ModelParams ModelParamsGen::operator()(Rng& rng) const {
  core::ModelParams params;
  // Rates: log-uniform across the regimes the paper sweeps, with mass on
  // zero (error-free is a valid boundary) and on the hot end where the
  // first-order window tightens.
  params.lambda_silent =
      rng.chance(0.1) ? 0.0 : rng.log_uniform(1e-6, 2e-3);
  if (allow_failstop && rng.chance(0.4)) {
    params.lambda_failstop = rng.log_uniform(1e-7, 5e-4);
  }
  params.checkpoint_s = rng.log_uniform(0.5, 120.0);
  // The paper's own platforms use R = C; keep that region dense.
  params.recovery_s =
      rng.chance(0.5) ? params.checkpoint_s : rng.log_uniform(0.5, 120.0);
  params.verification_s = rng.log_uniform(0.1, 30.0);
  params.kappa_mw = rng.log_uniform(100.0, 5000.0);
  params.idle_power_mw = rng.log_uniform(10.0, 500.0);
  params.io_power_mw = rng.log_uniform(5.0, 200.0);

  if (rng.chance(0.3)) {
    params.speeds = {0.25, 0.5, 1.0};  // the canonical toy ladder
  } else {
    const std::size_t count = 2 + rng.index(3);
    params.speeds.clear();
    double speed = 1.0;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      // Walk down from 1.0; a small step makes sigma1 ~ sigma2 — the
      // boundary where the two-speed optimum degenerates to single-speed.
      const double step =
          rng.chance(0.25) ? rng.uniform(1e-4, 2e-2) : rng.uniform(0.1, 0.4);
      speed = std::max(0.05, speed - step);
      params.speeds.push_back(speed);
    }
    params.speeds.push_back(1.0);
    std::sort(params.speeds.begin(), params.speeds.end());
    params.speeds.erase(
        std::unique(params.speeds.begin(), params.speeds.end()),
        params.speeds.end());
  }
  params.validate();
  return params;
}

std::vector<core::ModelParams> ModelParamsGen::shrink(
    const core::ModelParams& value) const {
  // One candidate per field reset to its round toy value: the greedy loop
  // converges on a counterexample whose irrelevant fields are all round.
  core::ModelParams toy;
  toy.lambda_silent = 1e-4;
  toy.lambda_failstop = 0.0;
  toy.checkpoint_s = 10.0;
  toy.recovery_s = 10.0;
  toy.verification_s = 2.0;
  toy.kappa_mw = 1000.0;
  toy.idle_power_mw = 100.0;
  toy.io_power_mw = 50.0;
  toy.speeds = {0.25, 0.5, 1.0};

  std::vector<core::ModelParams> candidates;
  const auto propose = [&](auto mutate) {
    core::ModelParams candidate = value;
    mutate(candidate);
    candidates.push_back(std::move(candidate));
  };
  if (value.speeds != toy.speeds) {
    propose([&](core::ModelParams& p) { p.speeds = toy.speeds; });
  }
  if (value.lambda_failstop != 0.0) {
    propose([&](core::ModelParams& p) { p.lambda_failstop = 0.0; });
  }
  if (value.lambda_silent != toy.lambda_silent) {
    propose([&](core::ModelParams& p) {
      p.lambda_silent = toy.lambda_silent;
    });
  }
  if (value.checkpoint_s != toy.checkpoint_s) {
    propose([&](core::ModelParams& p) { p.checkpoint_s = toy.checkpoint_s; });
  }
  if (value.recovery_s != value.checkpoint_s) {
    propose([&](core::ModelParams& p) { p.recovery_s = p.checkpoint_s; });
  }
  if (value.verification_s != toy.verification_s) {
    propose([&](core::ModelParams& p) {
      p.verification_s = toy.verification_s;
    });
  }
  if (value.kappa_mw != toy.kappa_mw) {
    propose([&](core::ModelParams& p) { p.kappa_mw = toy.kappa_mw; });
  }
  if (value.idle_power_mw != toy.idle_power_mw) {
    propose([&](core::ModelParams& p) {
      p.idle_power_mw = toy.idle_power_mw;
    });
  }
  if (value.io_power_mw != toy.io_power_mw) {
    propose([&](core::ModelParams& p) { p.io_power_mw = toy.io_power_mw; });
  }
  return candidates;
}

std::string ModelParamsGen::describe(const core::ModelParams& value) const {
  std::ostringstream out;
  out << "lambda=" << format_double(value.lambda_silent)
      << " lambda_failstop=" << format_double(value.lambda_failstop)
      << " C=" << format_double(value.checkpoint_s)
      << " R=" << format_double(value.recovery_s)
      << " V=" << format_double(value.verification_s)
      << " kappa=" << format_double(value.kappa_mw)
      << " Pidle=" << format_double(value.idle_power_mw)
      << " Pio=" << format_double(value.io_power_mw) << " speeds={";
  for (std::size_t i = 0; i < value.speeds.size(); ++i) {
    if (i > 0) out << ", ";
    out << format_double(value.speeds[i]);
  }
  out << "}";
  return out.str();
}

double RhoGen::operator()(Rng& rng) const {
  // Half the mass hugs the tight end (fallback / infeasibility boundary),
  // the rest spreads log-uniformly across the comfortable range.
  if (rng.chance(0.5)) return rng.uniform(min, std::min(max, 3.0));
  return rng.log_uniform(min, max);
}

std::vector<double> RhoGen::shrink(const double& value) const {
  std::vector<double> candidates;
  if (value != 3.0 && 3.0 >= min && 3.0 <= max) candidates.push_back(3.0);
  if (value > 6.0) candidates.push_back(value / 2.0);
  return candidates;
}

std::string RhoGen::describe(const double& value) const {
  return "rho=" + format_double(value);
}

std::vector<double> RhoGridGen::operator()(Rng& rng) const {
  const std::size_t count =
      min_points + rng.index(max_points - min_points + 1);
  std::vector<double> grid(count);
  RhoGen rho_gen;
  for (double& rho : grid) rho = rho_gen(rng);
  std::sort(grid.begin(), grid.end());
  if (count >= 2 && rng.chance(0.2)) grid[1] = grid[0];  // duplicate edge
  return grid;
}

std::vector<std::vector<double>> RhoGridGen::shrink(
    const std::vector<double>& value) const {
  std::vector<std::vector<double>> candidates;
  if (value.size() > min_points) {
    // Halve: first half, second half — a failing point survives in one.
    const std::size_t mid = value.size() / 2;
    candidates.emplace_back(value.begin(), value.begin() + mid);
    candidates.emplace_back(value.begin() + mid, value.end());
    for (auto& candidate : candidates) {
      if (candidate.size() < min_points) {
        candidate = value;  // too small to stand alone; drop below
      }
    }
    candidates.erase(
        std::remove(candidates.begin(), candidates.end(), value),
        candidates.end());
  }
  return candidates;
}

std::string RhoGridGen::describe(const std::vector<double>& value) const {
  std::ostringstream out;
  out << "rhos[" << value.size() << "]={";
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (i > 0) out << ", ";
    out << format_double(value[i]);
  }
  out << "}";
  return out.str();
}

unsigned SegmentCapGen::operator()(Rng& rng) const {
  // Biased low: m = 1 (the paper's pattern) and small caps are the common
  // case; the tail still reaches `max`.
  if (rng.chance(0.4)) return 1 + static_cast<unsigned>(rng.index(2));
  return 1 + static_cast<unsigned>(rng.index(max));
}

std::vector<unsigned> SegmentCapGen::shrink(const unsigned& value) const {
  std::vector<unsigned> candidates;
  if (value > 1) candidates.push_back(value - 1);
  if (value > 2) candidates.push_back(1);
  return candidates;
}

std::string SegmentCapGen::describe(const unsigned& value) const {
  return "max_segments=" + std::to_string(value);
}

engine::ScenarioSpec ScenarioSpecGen::operator()(Rng& rng) const {
  engine::ScenarioSpec spec;
  spec.name = "prop_case";
  const auto& configurations = platform::all_configurations();
  spec.configuration = configurations[rng.index(configurations.size())].name();
  spec.rho = RhoGen{}(rng);
  spec.points = 2 + rng.index(8);
  spec.policy = rng.chance(0.5) ? core::SpeedPolicy::kTwoSpeed
                                : core::SpeedPolicy::kSingleSpeed;
  spec.min_rho_fallback = rng.chance(0.8);

  switch (rng.index(5)) {
    case 0:
      spec.mode = core::EvalMode::kFirstOrder;
      break;
    case 1:
      spec.mode = core::EvalMode::kExactEvaluation;
      break;
    case 2:
      spec.mode = core::EvalMode::kExactOptimize;
      break;
    case 3:  // interleaved: a fixed count or a search cap
      if (rng.chance(0.5)) {
        spec.segments = SegmentCapGen{}(rng);
      } else {
        spec.max_segments = SegmentCapGen{}(rng);
      }
      break;
    case 4:  // recall: the only mode carrying partial recall
      spec.recall_mode = true;
      spec.verification_recall =
          rng.chance(0.5) ? rng.uniform(0.0, 1.0)
                          : std::vector<double>{0.5, 0.8, 0.95,
                                                1.0}[rng.index(4)];
      break;
  }

  // Sweep axis: rho always works; segments only for interleaved specs.
  if (spec.interleaved() && rng.chance(0.4)) {
    spec.sweep_parameter = sweep::SweepParameter::kSegments;
  } else if (rng.chance(0.8)) {
    spec.sweep_parameter = sweep::SweepParameter::kPerformanceBound;
  }  // else param=none (a solve)

  if (rng.chance(0.4)) {
    spec.overrides.push_back({"lambda", rng.log_uniform(1e-6, 2e-3)});
  }
  if (rng.chance(0.2)) {
    spec.overrides.push_back({"V", rng.log_uniform(0.1, 30.0)});
  }
  spec.cache = rng.chance(0.8);  // cache=0 opt-outs round-trip too
  spec.validate();
  return spec;
}

std::vector<engine::ScenarioSpec> ScenarioSpecGen::shrink(
    const engine::ScenarioSpec& value) const {
  std::vector<engine::ScenarioSpec> candidates;
  const auto propose = [&](auto mutate) {
    engine::ScenarioSpec candidate = value;
    mutate(candidate);
    candidate.validate();
    candidates.push_back(std::move(candidate));
  };
  if (!value.overrides.empty()) {
    propose([](engine::ScenarioSpec& s) { s.overrides.clear(); });
  }
  if (value.points > 3) {
    propose([](engine::ScenarioSpec& s) { s.points = 3; });
  }
  if (value.configuration != "Hera/XScale") {
    propose([](engine::ScenarioSpec& s) { s.configuration = "Hera/XScale"; });
  }
  if (value.rho != 3.0) {
    propose([](engine::ScenarioSpec& s) { s.rho = 3.0; });
  }
  if (value.recall_mode && value.verification_recall != 1.0) {
    propose([](engine::ScenarioSpec& s) { s.verification_recall = 1.0; });
  }
  if (!value.cache) {
    propose([](engine::ScenarioSpec& s) { s.cache = true; });
  }
  return candidates;
}

std::string ScenarioSpecGen::describe(
    const engine::ScenarioSpec& value) const {
  // write_scenario's key=value lines, flattened to the one-line
  // parse_scenario form — paste it straight back into `rexspeed sweep`.
  std::string text = engine::write_scenario(value);
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

}  // namespace rexspeed::proptest
