// Quickstart: describe the workload as an engine scenario, solve the
// BiCrit problem off its prepared solver backend, print the optimal
// checkpointing policy, then replay it in the fault-injection simulator
// and show a Figure-1-style execution trace.
//
// Usage:
//   quickstart [--config=Hera/XScale] [--rho=3.0] [--seed=1]

#include <cstdio>
#include <exception>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/sim/monte_carlo.hpp"

using namespace rexspeed;

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);
  const std::string config_name = args.get_or("config", "Hera/XScale");
  const auto seed = static_cast<std::uint64_t>(args.get_long_or("seed", 1));

  // The workload is data: a scenario spec the CLI, examples and tests
  // share. Any model parameter could be overridden the same way.
  engine::ScenarioSpec scenario;
  scenario.name = "quickstart";
  scenario.configuration = config_name;
  engine::apply_token(scenario, "rho", args.get_or("rho", "3.0"));
  const auto params = scenario.resolve_params();

  std::printf("Configuration %s: lambda=%.3g 1/s, C=%.0f s, V=%.1f s, "
              "kappa=%.0f mW, Pidle=%.1f mW, Pio=%.1f mW\n",
              config_name.c_str(), params.lambda_silent, params.checkpoint_s,
              params.verification_s, params.kappa_mw, params.idle_power_mw,
              params.io_power_mw);

  // 1. Solve BiCrit: minimize energy per work unit subject to T/W <= rho.
  const double rho = scenario.rho;
  const auto backend = engine::make_backend(scenario, params);
  backend->prepare();
  const core::BiCritSolution sol = backend->solve_report(rho);
  if (!sol.feasible) {
    std::printf("No speed pair satisfies rho = %.3f on this platform.\n",
                rho);
    return 0;
  }
  std::printf("\nOptimal policy for rho = %.3f:\n", rho);
  std::printf("  first execution speed  sigma1 = %.2f\n", sol.best.sigma1);
  std::printf("  re-execution speed     sigma2 = %.2f\n", sol.best.sigma2);
  std::printf("  pattern size           Wopt   = %.0f work units\n",
              sol.best.w_opt);
  std::printf("  energy overhead        E/W    = %.1f mW\n",
              sol.best.energy_overhead);
  std::printf("  time overhead          T/W    = %.3f s per work unit\n",
              sol.best.time_overhead);

  // 2. Replay the policy in the simulator (error rate boosted so a short
  //    demo run actually shows errors) and print the event timeline.
  auto hot = params;
  hot.lambda_silent *= 50.0;
  const sim::Simulator simulator(hot);
  const auto policy = sim::ExecutionPolicy::from_solution(sol.best);
  sim::Xoshiro256 rng(seed);
  sim::Trace trace(64);
  const sim::SimResult run =
      simulator.run(policy, 6.0 * sol.best.w_opt, rng, &trace);

  std::printf("\nSimulated 6 patterns at 50x the error rate "
              "(seed %llu):\n",
              static_cast<unsigned long long>(seed));
  for (const auto& event : trace.events()) {
    std::printf("  %s\n", sim::Trace::format(event).c_str());
  }
  if (trace.truncated()) std::printf("  ... (trace truncated)\n");
  std::printf("\nmakespan %.0f s, energy %.3g mW.s, %zu silent error(s), "
              "%zu checkpoint(s)\n",
              run.makespan_s, run.energy_mws, run.silent_errors,
              run.checkpoints);
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
