// Campaign simulation: run a long divisible-load application under the
// optimal two-speed policy and its single-speed counterpart, and compare
// the measured time/energy overheads with the analytical predictions —
// the end-to-end workflow a system operator would use before committing
// to a DVFS re-execution policy.
//
// Usage:
//   campaign_simulation [--config=Atlas/Crusoe] [--rho=3.0]
//                       [--days-of-work=30] [--reps=100] [--seed=7]
//                       [--error-boost=20]

#include <cstdio>
#include <exception>

#include "rexspeed/core/exact_expectations.hpp"
#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/io/table_writer.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "rexspeed/sim/monte_carlo.hpp"

using namespace rexspeed;

namespace {

struct Comparison {
  const char* label;
  core::PairSolution solution;
  sim::MonteCarloResult measured;
  double predicted_time;
  double predicted_energy;
};

Comparison evaluate(const char* label, const core::ModelParams& params,
                    const core::PairSolution& solution, double total_work,
                    std::size_t reps, std::uint64_t seed) {
  const sim::Simulator simulator(params);
  const auto policy = sim::ExecutionPolicy::from_solution(solution);
  sim::MonteCarloOptions options;
  options.replications = reps;
  options.total_work = total_work;
  options.base_seed = seed;
  return {label,
          solution,
          sim::run_monte_carlo(simulator, policy, options),
          core::time_overhead(params, solution.w_opt, solution.sigma1,
                              solution.sigma2),
          core::energy_overhead(params, solution.w_opt, solution.sigma1,
                                solution.sigma2)};
}

}  // namespace

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);
  const std::string config_name = args.get_or("config", "Atlas/Crusoe");
  const double rho = args.get_double_or("rho", 3.0);
  const double days = args.get_double_or("days-of-work", 30.0);
  const auto reps = static_cast<std::size_t>(args.get_long_or("reps", 100));
  const auto seed = static_cast<std::uint64_t>(args.get_long_or("seed", 7));
  const double boost = args.get_double_or("error-boost", 20.0);

  auto params = core::ModelParams::from_configuration(
      platform::configuration_by_name(config_name));
  const auto solver =
      core::make_mode_backend(params, core::EvalMode::kFirstOrder);
  solver->prepare();
  const auto two = solver->solve(rho, core::SpeedPolicy::kTwoSpeed);
  const auto one = solver->solve(rho, core::SpeedPolicy::kSingleSpeed);
  if (!two.feasible() || !one.feasible()) {
    std::printf("rho = %.3f is unachievable on %s\n", rho,
                config_name.c_str());
    return 0;
  }

  // Boost the error rate so a laptop-scale simulation sees enough errors;
  // the policy itself is recomputed for the boosted rate to stay optimal.
  params.lambda_silent *= boost;
  const auto hot_solver =
      core::make_mode_backend(params, core::EvalMode::kFirstOrder);
  hot_solver->prepare();
  const auto hot_two = hot_solver->solve(rho, core::SpeedPolicy::kTwoSpeed);
  const auto hot_one =
      hot_solver->solve(rho, core::SpeedPolicy::kSingleSpeed);

  const double total_work = days * 86400.0;
  std::printf("Campaign on %s: %.0f days of full-speed work, %zu "
              "replications, error rate boosted %.0fx "
              "(lambda = %.3g 1/s)\n\n",
              config_name.c_str(), days, reps, boost, params.lambda_silent);

  const Comparison rows[] = {
      evaluate("two-speed", params, hot_two.pair(), total_work, reps, seed),
      evaluate("one-speed", params, hot_one.pair(), total_work, reps,
               seed + 1)};

  io::TableWriter table({"policy", "(s1,s2)", "Wopt", "T/W model",
                         "T/W measured (95% CI)", "E/W model",
                         "E/W measured (95% CI)", "errors/run"});
  for (const auto& row : rows) {
    char speeds[32];
    std::snprintf(speeds, sizeof speeds, "(%.2f,%.2f)", row.solution.sigma1,
                  row.solution.sigma2);
    char time_ci[64];
    std::snprintf(time_ci, sizeof time_ci, "%.4f +/- %.4f",
                  row.measured.time_overhead.mean(),
                  row.measured.time_ci.half_width());
    char energy_ci[64];
    std::snprintf(energy_ci, sizeof energy_ci, "%.1f +/- %.1f",
                  row.measured.energy_overhead.mean(),
                  row.measured.energy_ci.half_width());
    table.add_row({row.label, speeds,
                   io::TableWriter::cell(row.solution.w_opt, 0),
                   io::TableWriter::cell(row.predicted_time, 4), time_ci,
                   io::TableWriter::cell(row.predicted_energy, 1), energy_ci,
                   io::TableWriter::cell(row.measured.silent_errors.mean(),
                                         1)});
  }
  std::printf("%s\n", table.str().c_str());

  const double saving =
      100.0 * (1.0 - rows[0].measured.energy_overhead.mean() /
                         rows[1].measured.energy_overhead.mean());
  std::printf("Measured energy saving of the two-speed policy: %.1f%%\n",
              saving);
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
