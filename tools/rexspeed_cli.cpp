// rexspeed — unified command-line front end for the library.
//
//   rexspeed solve     --config=Hera/XScale --rho=3 [--mode=MODE] [--single]
//                      [--segments=M | --max-segments=M]
//   rexspeed pairs     --config=Hera/XScale --rho=3 [--mode=MODE]
//   rexspeed sweep     --config=Atlas/Crusoe --param=C [--points=51]
//                      [--threads=N] [--out-dir=DIR] [--mode=MODE]
//   rexspeed sweep     --scenario=fig08 [--out-dir=DIR]
//   rexspeed sweep     --config=Hera/XScale --max-segments=8
//                      [--param={rho,segments,all}]
//   rexspeed simulate  --config=Hera/XScale --rho=3 --work=1e6
//                      [--reps=200] [--seed=1] [--boost=50] [--segments=M]
//                      [--recall=R]
//   rexspeed plan      --config=Coastal/XScale --rho=2 --days=90
//   rexspeed campaign  [--scenario-dir=DIR] [--scenarios=NAME,NAME,...]
//                      [--points=N] [--threads=N] [--out-dir=DIR]
//   rexspeed cache     {stats|verify|gc} --cache-dir=DIR
//   rexspeed scenarios
//   rexspeed modes
//   rexspeed kernels
//   rexspeed configs
//
// solve, sweep and campaign additionally take --cache-dir=DIR: a
// persistent content-addressed result store (store::make_store) that
// turns reruns into verified fetches.
//
// Every subcommand is a thin veneer over the engine layer (scenario
// registry + backend registry + the parallel sweep engine); --mode names
// are resolved through engine::backend_registry(), so a new solver
// backend shows up here without touching this file. All of the logic the
// CLI exercises is unit-tested in tests/.
//
// Exit codes: 0 success, 1 runtime failure (including an infeasible
// bound), 2 usage error (bad flag/value), 3 unknown name (scenario,
// configuration, mode), 4 cache-store failure.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "rexspeed/core/campaign.hpp"
#include "rexspeed/core/exact_expectations.hpp"
#include "rexspeed/core/interleaved.hpp"
#include "rexspeed/core/kernels/kernel_dispatch.hpp"
#include "rexspeed/core/recall_solver.hpp"
#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/scenario_file.hpp"
#include "rexspeed/engine/shard/shard_coordinator.hpp"
#include "rexspeed/engine/sweep_engine.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/io/figure_export.hpp"
#include "rexspeed/io/gnuplot_writer.hpp"
#include "rexspeed/io/table_writer.hpp"
#include "rexspeed/platform/configuration.hpp"
#include "rexspeed/sim/monte_carlo.hpp"
#include "rexspeed/store/result_store.hpp"
#include "rexspeed/store/serialize.hpp"
#include "rexspeed/store/store_key.hpp"
#include "rexspeed/sweep/section42_tables.hpp"

using namespace rexspeed;

namespace {

/// Comma-joined registry mode names for the usage text — always current.
std::string mode_names() {
  std::string names;
  for (const auto& entry : engine::backend_registry()) {
    if (!names.empty()) names += ",";
    names += entry.name;
  }
  return names;
}

int usage() {
  const std::string modes = mode_names();
  std::fprintf(
      stderr,
      "usage: rexspeed <command> [options]\n"
      "  solve     optimal policy + pattern size for a bound\n"
      "            --config=NAME --rho=R [--mode=MODE] [--single]\n"
      "            [--segments=M | --max-segments=M]  interleaved mode\n"
      "            [--cache-dir=DIR]\n"
      "  pairs     the per-sigma1 best-second-speed table (paper 4.2)\n"
      "            --config=NAME --rho=R [--mode=MODE]\n"
      "  sweep     one paper figure panel (or a full composite)\n"
      "            --config=NAME --param={C,V,lambda,rho,Pidle,Pio,all}\n"
      "            [--points=N] [--rho=R] [--threads=N] [--out-dir=DIR]\n"
      "            [--cache-dir=DIR]\n"
      "            [--mode={%s}]\n"
      "            or: --scenario=NAME (see `rexspeed scenarios`)\n"
      "            with --segments/--max-segments: interleaved panels\n"
      "            (--param={rho,segments,all})\n"
      "  simulate  Monte-Carlo validation of the optimal policy\n"
      "            --config=NAME --rho=R [--work=W] [--reps=N]\n"
      "            [--seed=S] [--boost=B] [--segments=M] [--recall=R]\n"
      "  plan      application-level campaign plan\n"
      "            --config=NAME --rho=R --days=D\n"
      "  campaign  batch of scenarios through one flattened task stream\n"
      "            [--scenario-dir=DIR] [--scenarios=NAME,NAME,...]\n"
      "            [--points=N] [--threads=N] [--out-dir=DIR]\n"
      "            [--cache-dir=DIR]\n"
      "            [--workers=N]  shard across N worker processes\n"
      "            (byte-identical results; overrides --threads)\n"
      "  cache     inspect a persistent result store\n"
      "            {stats|verify|gc} --cache-dir=DIR\n"
      "  scenarios list the registered scenarios (paper figures as data)\n"
      "  modes     list the registered solver backends\n"
      "  kernels   report the active expansion-kernel tier (SIMD dispatch)\n"
      "  configs   list the eight paper configurations\n",
      modes.c_str());
  return 2;
}

/// Flags consumed by scenario_from() — every scenario-driven subcommand
/// accepts these.
const std::vector<std::string> kScenarioFlags = {
    "scenario", "config",   "rho",          "points", "param", "mode",
    "exact",    "segments", "max-segments", "single", "recall"};

/// kScenarioFlags plus a subcommand's own additions.
std::vector<std::string> with(std::vector<std::string> base,
                              std::initializer_list<const char*> extra) {
  for (const char* flag : extra) base.emplace_back(flag);
  return base;
}

/// Allowlist-style flag validation: a typoed `--trheads=4` must fail the
/// run, not be silently dropped while the default runs instead. Positional
/// junk is rejected on the same principle (`accepts_positionals` opts the
/// cache subcommand's action word out).
void require_known_options(const io::ArgParser& args,
                           const std::vector<std::string>& allowed,
                           bool accepts_positionals = false) {
  for (const std::string& name : args.option_names()) {
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      throw std::invalid_argument("unknown option '--" + name +
                                  "' (run `rexspeed` for usage)");
    }
  }
  if (!accepts_positionals && !args.positionals().empty()) {
    throw std::invalid_argument("unexpected argument '" +
                                args.positionals().front() +
                                "' (options are --key=value)");
  }
}

/// `--cache-dir=` → a persistent result store; null (uncached) without
/// the flag. "none" and "file://" resolve through the
/// store::make_store vocabulary; remote URLs are rejected there.
std::unique_ptr<store::ResultStore> open_store(const io::ArgParser& args) {
  const std::string spec = args.get_or("cache-dir", "");
  if (spec.empty()) return nullptr;
  return store::make_store(spec);
}

/// Scenario described by the command line: `--scenario=NAME` pulls a
/// registry entry; every other flag overrides it.
engine::ScenarioSpec scenario_from(const io::ArgParser& args) {
  engine::ScenarioSpec spec;
  if (const auto name = args.get("scenario")) {
    spec = engine::scenario_by_name(*name);
  }
  if (const auto config = args.get("config")) spec.configuration = *config;
  if (const auto rho = args.get("rho")) {
    engine::apply_token(spec, "rho", *rho);
  }
  if (const auto points = args.get("points")) {
    engine::apply_token(spec, "points", *points);
  }
  if (const auto param = args.get("param")) {
    engine::apply_token(spec, "param", *param);
  }
  // --mode takes the backend-registry vocabulary; --exact stays as
  // shorthand for --mode=exact-opt. Applied before the segment flags so
  // --mode=interleaved composes with an explicit --segments/--max-segments
  // in either order (the explicit flag replaces the mode's m = 1 default).
  const auto mode = args.get("mode");
  if (mode) engine::apply_token(spec, "mode", *mode);
  if (args.has_flag("exact")) {
    if (mode && spec.mode != core::EvalMode::kExactOptimize) {
      // Silently favoring either flag would hand a script exact-opt
      // results it believes are first-order (or vice versa).
      throw std::invalid_argument("--exact conflicts with --mode=" + *mode +
                                  " (--exact is shorthand for "
                                  "--mode=exact-opt)");
    }
    spec.mode = core::EvalMode::kExactOptimize;
  }
  const auto segments = args.get("segments");
  const auto max_segments = args.get("max-segments");
  if (segments && max_segments) {
    throw std::invalid_argument(
        "--segments and --max-segments are mutually exclusive (a fixed "
        "count or a search cap, not both)");
  }
  if (segments) {
    spec.max_segments = 0;  // the flag overrides a registry search cap
    engine::apply_token(spec, "segments", *segments);
  }
  if (max_segments) {
    spec.segments = 0;  // and vice versa
    engine::apply_token(spec, "max_segments", *max_segments);
  }
  if (args.has_flag("single")) {
    spec.policy = core::SpeedPolicy::kSingleSpeed;
  }
  if (const auto recall = args.get("recall")) {
    engine::apply_token(spec, "verification_recall", *recall);
  }
  return spec;
}

int cmd_configs() {
  io::TableWriter table({"configuration", "lambda (1/s)", "C (s)", "V (s)",
                         "speeds", "kappa (mW)", "Pidle (mW)", "Pio (mW)"});
  for (const auto& config : platform::all_configurations()) {
    std::string speeds;
    for (const double s : config.processor.speeds) {
      if (!speeds.empty()) speeds += ",";
      speeds += io::TableWriter::cell(s, 2);
    }
    table.add_row({config.name(),
                   io::TableWriter::cell(config.platform.error_rate, 8),
                   io::TableWriter::cell(config.platform.checkpoint_s, 0),
                   io::TableWriter::cell(config.platform.verification_s, 1),
                   speeds,
                   io::TableWriter::cell(config.processor.kappa_mw, 0),
                   io::TableWriter::cell(config.processor.idle_power_mw, 1),
                   io::TableWriter::cell(config.io_power_mw, 2)});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

int cmd_modes() {
  io::TableWriter table({"mode", "panel axes", "description"});
  for (const auto& entry : engine::backend_registry()) {
    std::string axes;
    for (const auto axis : entry.panel_axes) {
      if (!axes.empty()) axes += ",";
      axes += sweep::to_string(axis);
    }
    table.add_row({entry.name, axes, entry.description});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nSelect one with --mode=NAME on solve/pairs/sweep, or mode=NAME in "
      "a scenario file.\n");
  return 0;
}

int cmd_kernels() {
  namespace kernels = core::kernels;
  std::string available;
  for (const kernels::KernelTier tier : kernels::available_tiers()) {
    if (!available.empty()) available += ",";
    available += kernels::to_string(tier);
  }
  std::printf("active tier:     %s\n",
              kernels::to_string(kernels::active_tier()));
  std::printf("available tiers: %s\n", available.c_str());
  std::printf("force scalar:    %s (REXSPEED_FORCE_SCALAR)\n",
              kernels::active_tier() == kernels::KernelTier::kScalar &&
                      kernels::available_tiers().size() > 1
                  ? "yes"
                  : "no");
  return 0;
}

int cmd_scenarios() {
  io::TableWriter table(
      {"scenario", "configuration", "mode", "kind", "description"});
  for (const auto& spec : engine::scenario_registry()) {
    std::string kind = "solve";
    if (spec.kind() == engine::ScenarioKind::kSweep) {
      kind = sweep::to_string(*spec.sweep_parameter);
    } else if (spec.kind() == engine::ScenarioKind::kAllSweeps) {
      kind = "all sweeps";
    }
    table.add_row({spec.name, spec.configuration,
                   engine::backend_mode_name(spec), kind, spec.description});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nRun one with `rexspeed sweep --scenario=NAME`; any --config, "
      "--rho,\n--points or --param flag overrides the registered value.\n");
  return 0;
}

/// Shared reporting tail for cmd_solve: `backend` (prepared) is null on a
/// cache hit (only feasible solutions are cached, and those never consult
/// it).
int report_solution(const engine::ScenarioSpec& spec,
                    const core::Solution& sol,
                    const core::SolverBackend* backend) {
  if (!sol.feasible()) {
    if (sol.kind() == core::SolutionKind::kInterleaved) {
      std::printf("infeasible: no segmented pattern satisfies rho = %g "
                  "(up to %u segments)\n",
                  spec.rho, spec.segment_limit());
      return 1;
    }
    std::printf("infeasible: no speed pair satisfies rho = %g\n", spec.rho);
    // Report the backend's own floor (the exact-model one for exact-opt,
    // not the first-order tangency) when it has one.
    if (backend != nullptr) {
      const core::Solution fallback = backend->min_rho(spec.policy);
      if (fallback.feasible()) {
        std::printf("best-effort minimum bound: rho_min = %.4f at "
                    "(%.2f, %.2f)\n",
                    fallback.pair().rho_min, fallback.sigma1(),
                    fallback.sigma2());
      }
    }
    return 1;
  }
  if (sol.kind() == core::SolutionKind::kInterleaved) {
    std::printf("sigma1 = %.2f  sigma2 = %.2f  Wopt = %.1f  "
                "segments = %u\n",
                sol.sigma1(), sol.sigma2(), sol.w_opt(), sol.segments());
  } else {
    std::printf("sigma1 = %.2f  sigma2 = %.2f  Wopt = %.1f\n",
                sol.sigma1(), sol.sigma2(), sol.w_opt());
  }
  std::printf("E/W = %.2f mW   T/W = %.4f s per work unit (bound %g)\n",
              sol.energy_overhead(), sol.time_overhead(), spec.rho);
  return 0;
}

int cmd_solve(const io::ArgParser& args) {
  const auto spec = scenario_from(args);
  const std::unique_ptr<store::ResultStore> cache = open_store(args);
  std::unique_ptr<core::SolverBackend> backend = engine::make_backend(spec);

  // The CLI solve is a plain bounded solve — no min-rho fallback take —
  // so its content address says so (min_rho_fallback=false) whatever the
  // spec's campaign-side flag, keeping cached ≡ recomputed exact. Only
  // feasible solutions are cached: the infeasible path reports the
  // backend's min-rho floor, which needs a prepared backend anyway.
  std::string key;
  if (cache != nullptr && spec.cache) {
    key = store::solve_key(*backend, spec.rho, spec.policy,
                           /*min_rho_fallback=*/false,
                           spec.verification_recall);
    if (const std::optional<std::string> blob = cache->fetch(key)) {
      try {
        const core::Solution sol = store::decode_solution_entry(*blob);
        if (sol.feasible()) {
          // Verified hit: the backend's (possibly expensive) prepare is
          // skipped entirely.
          cache->flush();
          return report_solution(spec, sol, nullptr);
        }
      } catch (const store::SerializeError&) {
        // Corrupt payload under a valid envelope: recompute (and re-put,
        // which heals the entry).
      }
    }
  }

  backend->prepare();
  const core::Solution sol = backend->solve(spec.rho, spec.policy);
  if (!key.empty() && sol.feasible()) {
    store::EntryInfo info;
    info.kind = "solution";
    info.scenario = spec.name;
    info.configuration = spec.configuration;
    info.backend = backend->name();
    info.backend_version = backend->capabilities().version;
    info.axis = "-";
    info.points = 1;
    info.canonical_size = store::canonical_size(sol);
    cache->put(key, store::encode_solution_entry(sol), std::move(info));
    cache->flush();
  }
  return report_solution(spec, sol, backend.get());
}

int cmd_pairs(const io::ArgParser& args) {
  const auto spec = scenario_from(args);
  // Capabilities are readable before prepare(), so a table-less backend
  // is rejected before its (possibly expensive) cache would be built.
  std::unique_ptr<core::SolverBackend> backend = engine::make_backend(spec);
  if (!backend->capabilities().pair_table) {
    std::fprintf(stderr,
                 "error: mode '%s' has no speed-pair table (paper 4.2 "
                 "tables need a pair backend)\n",
                 backend->name());
    return 2;
  }
  backend->prepare();
  io::TableWriter table({"sigma1", "best sigma2", "Wopt", "E/W", ""});
  const auto rows = sweep::speed_pair_table(*backend, spec.rho);
  for (const auto& row : rows) {
    if (!row.feasible) {
      table.add_row(
          {io::TableWriter::cell(row.sigma1, 2), "-", "-", "-", ""});
      continue;
    }
    table.add_row({io::TableWriter::cell(row.sigma1, 2),
                   io::TableWriter::cell(row.best_sigma2, 2),
                   io::TableWriter::cell(row.w_opt, 0),
                   io::TableWriter::cell(row.energy_overhead, 1),
                   row.is_global_best ? "<== best" : ""});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

void print_series(const sweep::Series& flat) {
  io::TableWriter table([&] {
    io::Row header{flat.x_name()};
    for (const auto& column : flat.column_names()) header.push_back(column);
    return header;
  }());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    io::Row row{io::TableWriter::cell(flat.x()[i], 6)};
    for (std::size_t c = 0; c < flat.column_names().size(); ++c) {
      row.push_back(io::TableWriter::cell(flat.column(c)[i], 3));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.str().c_str());
}

int export_series(const sweep::PanelSeries& series,
                  const std::string& out_dir) {
  const auto stem = io::export_gnuplot_figure(series, out_dir);
  if (!stem) {
    std::fprintf(stderr, "error: cannot write to --out-dir=%s\n",
                 out_dir.c_str());
    return 1;
  }
  std::printf("wrote %s/%s.dat and .gp\n", out_dir.c_str(), stem->c_str());
  return 0;
}

int cmd_sweep(const io::ArgParser& args) {
  engine::ScenarioSpec spec = scenario_from(args);
  // Bare `rexspeed sweep` keeps its historical defaults: the Figure 2
  // panel (checkpoint-time sweep on Atlas/Crusoe).
  if (!args.get("scenario") && !args.get("config")) {
    spec.configuration = "Atlas/Crusoe";
  }
  if (spec.kind() == engine::ScenarioKind::kSolve) {
    // Bare `rexspeed sweep` defaults to the Figure 2 checkpoint sweep (or
    // the ρ panel in interleaved mode); an EXPLICIT --param=none asked
    // for no sweep and must not be rewritten.
    if (args.get("param")) {
      std::fprintf(stderr,
                   "error: --param=none is a solve, not a sweep; use "
                   "`rexspeed solve` (or `rexspeed campaign`)\n");
      return 2;
    }
    spec.sweep_parameter = spec.interleaved()
                               ? sweep::SweepParameter::kPerformanceBound
                               : sweep::SweepParameter::kCheckpointTime;
  }
  const long threads = args.get_long_or("threads", 0);
  if (threads < 0) {
    std::fprintf(stderr,
                 "error: --threads must be >= 0 (0 = hardware "
                 "concurrency), got %ld\n",
                 threads);
    return 2;
  }
  const std::unique_ptr<store::ResultStore> cache = open_store(args);
  engine::SweepEngineOptions engine_options;
  engine_options.threads = static_cast<unsigned>(threads);
  engine_options.store = cache.get();
  const engine::SweepEngine engine(engine_options);
  const std::string out_dir = args.get_or("out-dir", "");
  // One loop for every backend: the panels carry their own solution kind,
  // so printing and exporting need no mode dispatch.
  for (const auto& series : engine.run_scenario(spec)) {
    if (out_dir.empty()) {
      print_series(to_series(series));
    } else if (const int status = export_series(series, out_dir)) {
      return status;
    }
  }
  return 0;
}

int cmd_simulate(const io::ArgParser& args) {
  const auto spec = scenario_from(args);
  auto params = spec.resolve_params();
  const double boost = args.get_double_or("boost", 50.0);
  // A full-recall-mode spec with verification_recall < 1 still solves for
  // its policy at full recall — the one shared stripping rule. mode=recall
  // specs solve recall-aware instead.
  const core::Solution sol = engine::solve_for_simulation(spec);
  if (!sol.feasible()) {
    std::printf("infeasible bound\n");
    return 1;
  }
  params.lambda_silent *= boost;
  const sim::Simulator simulator(params, sim::FaultInjector(params),
                                 engine::simulator_options(spec));
  sim::MonteCarloOptions options;
  options.replications =
      static_cast<std::size_t>(args.get_long_or("reps", 200));
  options.total_work = args.get_double_or("work", 50.0 * sol.w_opt());
  options.base_seed =
      static_cast<std::uint64_t>(args.get_long_or("seed", 1));

  double t_model = 0.0;
  double e_model = 0.0;
  sim::ExecutionPolicy policy =
      sim::ExecutionPolicy::single_speed(1.0, 1.0);
  if (sol.kind() == core::SolutionKind::kInterleaved) {
    const auto& seg = sol.interleaved();
    policy = sim::ExecutionPolicy::segmented(seg.w_opt, seg.segments,
                                             seg.sigma1, seg.sigma2);
    t_model = core::expected_time_interleaved(params, seg.w_opt,
                                              seg.segments, seg.sigma1,
                                              seg.sigma2) /
              seg.w_opt;
    e_model = core::expected_energy_interleaved(params, seg.w_opt,
                                                seg.segments, seg.sigma1,
                                                seg.sigma2) /
              seg.w_opt;
    std::printf("policy (%.2f, %.2f), W = %.0f, %u segments, lambda "
                "boosted x%g\n",
                seg.sigma1, seg.sigma2, seg.w_opt, seg.segments, boost);
  } else {
    policy = sim::ExecutionPolicy::from_solution(sol.pair());
    if (spec.recall_mode) {
      // Recall-exact expectations at the boosted rate: these account for
      // missed detections, so the simulated columns should match them.
      t_model = core::expected_time_recall(params, spec.verification_recall,
                                           sol.w_opt(), sol.sigma1(),
                                           sol.sigma2()) /
                sol.w_opt();
      e_model = core::expected_energy_recall(
                    params, spec.verification_recall, sol.w_opt(),
                    sol.sigma1(), sol.sigma2()) /
                sol.w_opt();
    } else {
      t_model = core::time_overhead(params, sol.w_opt(), sol.sigma1(),
                                    sol.sigma2());
      e_model = core::energy_overhead(params, sol.w_opt(), sol.sigma1(),
                                      sol.sigma2());
    }
    std::printf("policy (%.2f, %.2f), W = %.0f, lambda boosted x%g\n",
                sol.sigma1(), sol.sigma2(), sol.w_opt(), boost);
  }
  const auto mc = sim::run_monte_carlo(simulator, policy, options);
  std::printf("T/W: model %.4f | simulated %.4f +/- %.4f\n", t_model,
              mc.time_overhead.mean(), mc.time_ci.half_width());
  std::printf("E/W: model %.2f | simulated %.2f +/- %.2f\n", e_model,
              mc.energy_overhead.mean(), mc.energy_ci.half_width());
  std::printf("errors/run: %.1f silent detected, %.1f fail-stop\n",
              mc.silent_errors.mean(), mc.failstop_errors.mean());
  if (spec.verification_recall < 1.0) {
    if (spec.recall_mode) {
      std::printf("verification recall %.2f (mode=recall): model overheads "
                  "are recall-exact; corruption probability %.3g per "
                  "pattern\n",
                  spec.verification_recall,
                  core::recall_corruption_probability(
                      params, spec.verification_recall, sol.w_opt(),
                      sol.sigma1(), sol.sigma2()));
    } else {
      std::printf("verification recall %.2f: model overheads assume "
                  "guaranteed verifications; missed errors corrupt "
                  "checkpoints silently (mode=recall models them)\n",
                  spec.verification_recall);
    }
  }
  return 0;
}

int cmd_campaign(const io::ArgParser& args) {
  std::vector<engine::ScenarioSpec> extras;
  if (const auto dir = args.get("scenario-dir")) {
    extras = engine::load_scenario_dir(*dir);
  }
  std::vector<engine::ScenarioSpec> specs =
      engine::merge_with_registry(extras);

  // Accept --scenario too (the flag `sweep` uses) so a singular/plural
  // mix-up never silently runs the whole registry.
  const auto names = args.get("scenarios");
  const auto name_flag = args.get("scenario");
  if (names || name_flag) {
    std::string selection = names ? *names : "";
    if (name_flag) {
      selection += selection.empty() ? *name_flag : "," + *name_flag;
    }
    std::vector<engine::ScenarioSpec> selected;
    std::istringstream stream(selection);
    std::string name;
    while (std::getline(stream, name, ',')) {
      const auto it = std::find_if(
          specs.begin(), specs.end(),
          [&](const auto& spec) { return spec.name == name; });
      if (it == specs.end()) {
        std::fprintf(stderr, "error: unknown scenario '%s'\n", name.c_str());
        return 2;
      }
      selected.push_back(*it);
    }
    if (selected.empty()) {
      std::fprintf(stderr,
                   "error: --scenarios selected nothing (empty list)\n");
      return 2;
    }
    specs = std::move(selected);
  }
  if (const auto points = args.get("points")) {
    for (auto& spec : specs) engine::apply_token(spec, "points", *points);
  }

  const long threads = args.get_long_or("threads", 0);
  if (threads < 0) {
    std::fprintf(stderr, "error: --threads must be >= 0, got %ld\n", threads);
    return 2;
  }
  std::vector<engine::ScenarioResult> results;
  std::string footer;
  if (args.get("workers")) {
    // Sharded path: fork worker PROCESSES before any thread pool exists
    // (forking a multithreaded parent is undefined enough to avoid) and
    // let the coordinator open its own store handle — workers open
    // theirs on the same directory. Results are byte-identical to the
    // in-process runner by tested contract.
    const long workers = args.get_long_or("workers", 0);
    if (workers < 1) {
      std::fprintf(stderr, "error: --workers must be >= 1, got %ld\n",
                   workers);
      return 2;
    }
    engine::shard::ShardOptions options;
    options.workers = static_cast<unsigned>(workers);
    options.cache_spec = args.get_or("cache-dir", "");
    engine::shard::ShardCoordinator coordinator(options);
    results = coordinator.run(specs);
    const engine::shard::ShardReport& report = coordinator.report();
    for (const engine::shard::ShardIncident& incident : report.incidents) {
      std::fprintf(stderr, "incident: %s\n", incident.detail.c_str());
    }
    char buffer[192];
    std::snprintf(buffer, sizeof buffer,
                  "\n%zu scenarios across %u worker processes (%zu tasks, "
                  "%zu cache hits, %zu by workers, %zu in-process, "
                  "%zu requeued, %u deaths)\n",
                  results.size(), report.workers_spawned, report.tasks,
                  report.cache_hits, report.completed_by_workers,
                  report.completed_in_process, report.requeued,
                  report.worker_deaths);
    footer = buffer;
  } else {
    const std::unique_ptr<store::ResultStore> cache = open_store(args);
    engine::CampaignRunner runner({.threads = static_cast<unsigned>(threads),
                                   .store = cache.get()});
    results = runner.run(specs);
    for (const std::string& incident : runner.incidents()) {
      std::fprintf(stderr, "incident: %s\n", incident.c_str());
    }
    char buffer[96];
    std::snprintf(buffer, sizeof buffer,
                  "\n%zu scenarios through one pool (%u threads)\n",
                  results.size(), runner.thread_count());
    footer = buffer;
  }

  const std::string out_dir = args.get_or("out-dir", "");
  io::TableWriter table(
      {"scenario", "configuration", "mode", "kind", "panels", "result"});
  for (const auto& result : results) {
    const auto& spec = result.spec;
    std::string kind = "solve";
    std::string outcome;
    if (spec.kind() == engine::ScenarioKind::kSolve) {
      const core::Solution& sol = result.solution;
      char buffer[96];
      if (!sol.feasible()) {
        std::snprintf(buffer, sizeof buffer, "infeasible at rho=%g",
                      spec.rho);
      } else if (sol.kind() == core::SolutionKind::kInterleaved) {
        std::snprintf(buffer, sizeof buffer,
                      "(%.2f, %.2f) m=%u Wopt=%.0f E/W=%.1f", sol.sigma1(),
                      sol.sigma2(), sol.segments(), sol.w_opt(),
                      sol.energy_overhead());
      } else {
        std::snprintf(buffer, sizeof buffer,
                      "(%.2f, %.2f) Wopt=%.0f E/W=%.1f%s", sol.sigma1(),
                      sol.sigma2(), sol.w_opt(), sol.energy_overhead(),
                      sol.used_fallback ? " [min-rho]" : "");
      }
      outcome = buffer;
    } else {
      kind = spec.kind() == engine::ScenarioKind::kSweep
                 ? sweep::to_string(*spec.sweep_parameter)
                 : "all sweeps";
      double max_saving = 0.0;
      for (const auto& panel : result.panels) {
        max_saving = std::max(max_saving, panel.max_energy_saving());
      }
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "max saving %.1f%% vs %s",
                    100.0 * max_saving,
                    spec.interleaved() ? "m=1" : "single-speed");
      outcome = buffer;
    }
    table.add_row({spec.name, spec.configuration,
                   engine::backend_mode_name(spec), kind,
                   std::to_string(result.panels.size()), outcome});

    if (!out_dir.empty() && !result.panels.empty()) {
      const std::string scenario_dir = out_dir + "/" + spec.name;
      std::error_code ec;
      std::filesystem::create_directories(scenario_dir, ec);
      for (const auto& panel : result.panels) {
        const auto stem = io::export_figure(panel, scenario_dir);
        if (!stem) {
          std::fprintf(stderr, "error: cannot write to %s\n",
                       scenario_dir.c_str());
          return 1;
        }
        std::printf("wrote %s/%s.{dat,gp,csv}\n", scenario_dir.c_str(),
                    stem->c_str());
      }
    }
  }
  std::printf("%s", table.str().c_str());
  std::printf("%s", footer.c_str());
  return 0;
}

int cmd_plan(const io::ArgParser& args) {
  const auto spec = scenario_from(args);
  const auto params = spec.resolve_params();
  const double days = args.get_double_or("days", 30.0);
  const auto plan = core::plan_campaign(params, spec.rho, days * 86400.0);
  if (!plan.feasible) {
    std::printf("infeasible bound\n");
    return 1;
  }
  std::printf("policy (%.2f, %.2f), W = %.0f, %.0f patterns\n",
              plan.policy.sigma1, plan.policy.sigma2, plan.policy.w_opt,
              plan.patterns);
  std::printf("expected makespan %.2f days (ideal %.2f), energy %.4g "
              "mW.s\n",
              plan.expected_makespan_s / 86400.0,
              plan.ideal_makespan_s / 86400.0, plan.expected_energy_mws);
  std::printf("E[attempts/pattern] = %.4f, expected errors %.2f\n",
              plan.attempts.expected_attempts, plan.expected_errors);
  return 0;
}

int cmd_cache(const io::ArgParser& args) {
  const std::vector<std::string>& actions = args.positionals();
  if (actions.size() != 1) {
    std::fprintf(stderr,
                 "usage: rexspeed cache {stats|verify|gc} --cache-dir=DIR\n");
    return 2;
  }
  const std::string& action = actions.front();
  if (action != "stats" && action != "verify" && action != "gc") {
    throw std::invalid_argument("unknown cache action '" + action +
                                "' (stats|verify|gc)");
  }
  const std::string spec = args.get_or("cache-dir", "");
  if (spec.empty()) {
    throw std::invalid_argument(
        "--cache-dir=DIR is required (the store to inspect)");
  }
  const std::unique_ptr<store::ResultStore> cache = store::make_store(spec);
  if (action == "stats") {
    const store::StoreStats stats = cache->stats();
    std::printf("tier:    %s\n", cache->tier_name());
    std::printf("entries: %llu (%llu bytes)\n",
                static_cast<unsigned long long>(stats.entries),
                static_cast<unsigned long long>(stats.bytes));
    std::printf("hits:    %llu\n", static_cast<unsigned long long>(stats.hits));
    std::printf("misses:  %llu\n",
                static_cast<unsigned long long>(stats.misses));
    std::printf("stores:  %llu\n",
                static_cast<unsigned long long>(stats.stores));
    std::printf("corrupt: %llu\n",
                static_cast<unsigned long long>(stats.corrupt));
    std::printf("failed puts: %llu\n",
                static_cast<unsigned long long>(stats.put_failures));
    if (stats.sized_bytes > 0) {
      std::printf("ratio:   %.2fx (%llu canonical bytes in %llu)\n",
                  static_cast<double>(stats.canonical_bytes) /
                      static_cast<double>(stats.sized_bytes),
                  static_cast<unsigned long long>(stats.canonical_bytes),
                  static_cast<unsigned long long>(stats.sized_bytes));
    }
    return 0;
  }
  if (action == "verify") {
    const std::vector<std::string> bad = cache->verify();
    if (bad.empty()) {
      std::printf("ok: every entry verifies\n");
      return 0;
    }
    for (const std::string& key : bad) {
      std::printf("corrupt: %s\n", key.c_str());
    }
    std::fprintf(stderr, "error: %zu bad entries (run `rexspeed cache gc`)\n",
                 bad.size());
    return 1;
  }
  const std::size_t removed = cache->gc();
  std::printf("removed %zu bad entries\n", removed);
  return 0;
}

/// Dispatch + per-command flag allowlists. Throws propagate to main,
/// which owns the exception → exit-code mapping.
int run_command(const std::string& command, const io::ArgParser& args) {
  if (command == "configs" || command == "modes" || command == "kernels" ||
      command == "scenarios") {
    require_known_options(args, {});
    if (command == "configs") return cmd_configs();
    if (command == "modes") return cmd_modes();
    if (command == "kernels") return cmd_kernels();
    return cmd_scenarios();
  }
  if (command == "solve") {
    require_known_options(args, with(kScenarioFlags, {"cache-dir"}));
    return cmd_solve(args);
  }
  if (command == "pairs") {
    require_known_options(args, kScenarioFlags);
    return cmd_pairs(args);
  }
  if (command == "sweep") {
    require_known_options(
        args, with(kScenarioFlags, {"threads", "out-dir", "cache-dir"}));
    return cmd_sweep(args);
  }
  if (command == "simulate") {
    require_known_options(args,
                          with(kScenarioFlags, {"boost", "reps", "work",
                                                "seed"}));
    return cmd_simulate(args);
  }
  if (command == "plan") {
    require_known_options(args, with(kScenarioFlags, {"days"}));
    return cmd_plan(args);
  }
  if (command == "campaign") {
    require_known_options(args, {"scenario-dir", "scenarios", "scenario",
                                 "points", "threads", "out-dir",
                                 "cache-dir", "workers"});
    return cmd_campaign(args);
  }
  if (command == "cache") {
    require_known_options(args, {"cache-dir"},
                          /*accepts_positionals=*/true);
    return cmd_cache(args);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const io::ArgParser args(argc - 1, argv + 1);
    return run_command(command, args);
  } catch (const store::StoreError& error) {
    std::fprintf(stderr, "rexspeed %s: cache error: %s\n", command.c_str(),
                 error.what());
    return 4;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "rexspeed %s: %s\n", command.c_str(), error.what());
    return 2;
  } catch (const std::out_of_range& error) {
    std::fprintf(stderr, "rexspeed %s: %s\n", command.c_str(), error.what());
    return 3;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rexspeed %s: error: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
}
