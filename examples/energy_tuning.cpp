// Energy tuning: explore how the optimal speed pair and the two-speed
// energy savings react to the performance bound on a chosen platform —
// an interactive version of the paper's §4.2 study.
//
// Usage:
//   energy_tuning [--config=Hera/XScale] [--rho-min=1.1] [--rho-max=8]
//                 [--steps=15]

#include <cstdio>
#include <exception>

#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/io/table_writer.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "rexspeed/sweep/grid.hpp"
#include "rexspeed/sweep/section42_tables.hpp"

using namespace rexspeed;

namespace {

void print_speed_pair_table(const core::SolverBackend& solver, double rho) {
  std::printf("rho = %g\n", rho);
  io::TableWriter table({"sigma1", "best sigma2", "Wopt", "E/W", ""});
  for (const auto& row : sweep::speed_pair_table(solver, rho)) {
    if (!row.feasible) {
      table.add_row({io::TableWriter::cell(row.sigma1, 2), "-", "-", "-",
                     ""});
      continue;
    }
    table.add_row({io::TableWriter::cell(row.sigma1, 2),
                   io::TableWriter::cell(row.best_sigma2, 2),
                   io::TableWriter::cell(row.w_opt, 0),
                   io::TableWriter::cell(row.energy_overhead, 1),
                   row.is_global_best ? "<== best" : ""});
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);
  const std::string config_name = args.get_or("config", "Hera/XScale");
  const double rho_min = args.get_double_or("rho-min", 1.1);
  const double rho_max = args.get_double_or("rho-max", 8.0);
  const auto steps =
      static_cast<std::size_t>(args.get_long_or("steps", 15));

  // One prepared backend serves the four §4.2 tables and the whole bound
  // scan: the O(K²) expansions are computed exactly once.
  const auto solver = core::make_mode_backend(
      core::ModelParams::from_configuration(
          platform::configuration_by_name(config_name)),
      core::EvalMode::kFirstOrder);
  solver->prepare();

  std::printf("=== Speed-pair tables (paper section 4.2) on %s ===\n\n",
              config_name.c_str());
  for (const double rho : sweep::section42_bounds()) {
    print_speed_pair_table(*solver, rho);
  }

  std::printf("=== Two-speed vs single-speed across the bound ===\n\n");
  io::TableWriter table({"rho", "sigma1", "sigma2", "Wopt", "E/W 2-speed",
                         "E/W 1-speed", "saving %"});
  for (const double rho : sweep::linspace(rho_min, rho_max, steps)) {
    const auto two = solver->solve(rho, core::SpeedPolicy::kTwoSpeed);
    const auto one = solver->solve(rho, core::SpeedPolicy::kSingleSpeed);
    if (!two.feasible()) {
      table.add_row({io::TableWriter::cell(rho, 3), "-", "-", "-", "-", "-",
                     "-"});
      continue;
    }
    const double saving =
        one.feasible()
            ? 100.0 * (1.0 - two.pair().energy_overhead /
                                 one.pair().energy_overhead)
            : 0.0;
    table.add_row({io::TableWriter::cell(rho, 3),
                   io::TableWriter::cell(two.pair().sigma1, 2),
                   io::TableWriter::cell(two.pair().sigma2, 2),
                   io::TableWriter::cell(two.pair().w_opt, 0),
                   io::TableWriter::cell(two.pair().energy_overhead, 1),
                   one.feasible()
                       ? io::TableWriter::cell(one.pair().energy_overhead, 1)
                       : "-",
                   io::TableWriter::cell(saving, 1)});
  }
  std::printf("%s", table.str().c_str());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 1;
}
