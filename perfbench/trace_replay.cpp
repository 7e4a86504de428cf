// In-process traced replay of one benchmark workload (see README.md).
//
// The untraced benchmark times the `rexspeed campaign` CLI as a black
// box. This program explains those numbers layer by layer: it replays the
// workload's campaign in-process through the layers' public functions,
// with a span around every call into a layer, and then probes each layer
// on its own (backend build/prepare, serial panel sweeps, the campaign
// runner at N and at 1 thread, the result store's write and read paths,
// export formatting). Spans are recorded from this file only: the library
// itself carries no instrumentation.
//
// Every result the replays and probes produce is fingerprinted and must
// equal the first replay's, bit for bit (cold ≡ warm ≡ recompute ≡
// serial); the count of mismatches is reported, and so is the first
// replay's fingerprint, which run.py compares with the pinned one.
//
// Usage:
//   perfbench_trace --workload={compute,figures-cold,rerun-warm}
//                   --points=N --scenarios=NAME,... --seconds=S
//                   --work-dir=DIR --trace-out=FILE
//   perfbench_trace --count-points --points=N --scenarios=NAME,...
//
// Prints one JSON object on stdout: {"metrics": {...}, "fingerprint": f,
// "mismatches": n, "cycles": c, "replay_hit_ratio": r}. Cycles repeat
// until --seconds have passed. --count-points prints the number of grid
// points a campaign over those scenarios at --points delivers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rexspeed/core/expansion_soa.hpp"
#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/scenario_file.hpp"
#include "rexspeed/io/cli.hpp"
#include "rexspeed/io/csv_writer.hpp"
#include "rexspeed/io/gnuplot_writer.hpp"
#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/result_store.hpp"
#include "rexspeed/store/serialize.hpp"
#include "rexspeed/store/store_key.hpp"
#include "rexspeed/sweep/panel_sweep.hpp"

using namespace rexspeed;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// The campaign's thread count, as run.py passes it to the CLI (THREADS).
constexpr unsigned kThreads = 4;

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// ------------------------------------------------------------------ spans

/// Records spans (name, category, start, end, parent) in memory on the
/// calling thread and writes them as Chrome trace-event JSON at the end.
/// Only the main thread records: every call this program wraps — including
/// the store calls CampaignRunner makes — runs on the caller's thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string category;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::string args;  ///< extra JSON members for "args" (may be empty)
  };

  Tracer() : epoch_(Clock::now()) {}

  int begin(std::string name, std::string category,
            Clock::time_point start = Clock::now()) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), std::move(category), start, {},
                      open_.empty() ? -1 : open_.back(), {}});
    open_.push_back(id);
    return id;
  }

  void end(int id, Clock::time_point when) {
    spans_[static_cast<std::size_t>(id)].end = when;
    if (open_.empty() || open_.back() != id) {
      throw std::logic_error("trace: spans closed out of order");
    }
    open_.pop_back();
  }

  Span& span(int id) { return spans_[static_cast<std::size_t>(id)]; }

  /// Sum of the durations of the "layer" spans opened after span `root`.
  /// Layer spans never overlap (they are disjoint calls on one thread),
  /// so this is the part of the root's interval the layers cover.
  [[nodiscard]] double layer_seconds_after(int root) const {
    double total = 0.0;
    for (std::size_t i = static_cast<std::size_t>(root) + 1;
         i < spans_.size(); ++i) {
      if (spans_[i].category == "layer") {
        total += seconds_between(spans_[i].start, spans_[i].end);
      }
    }
    return total;
  }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":\"perfbench_trace\"}}";
    char buffer[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::snprintf(buffer, sizeof buffer,
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d",
                    1e6 * seconds_between(epoch_, span.start),
                    1e6 * seconds_between(span.start, span.end), i,
                    span.parent);
      out << ",\n{\"name\":\"" << span.name << "\",\"cat\":\""
          << span.category << "\"" << buffer;
      if (!span.args.empty()) out << "," << span.args;
      out << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One timed call into a layer: a span when a tracer is given, and the
/// elapsed seconds either way (close() returns them; closing twice is a
/// no-op that returns the first reading).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, std::string category)
      : tracer_(tracer),
        start_(Clock::now()),
        id_(tracer != nullptr
                ? tracer->begin(std::move(name), std::move(category), start_)
                : -1) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  double close() {
    if (!closed_) {
      const Clock::time_point end = Clock::now();
      seconds_ = seconds_between(start_, end);
      if (tracer_ != nullptr) tracer_->end(id_, end);
      closed_ = true;
    }
    return seconds_;
  }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  int id_;
  bool closed_ = false;
  double seconds_ = 0.0;
};

// ------------------------------------------------------------ store tap

/// What the TracedStore saw: time busy and work done per operation.
struct StoreCounts {
  double fetch_s = 0.0, put_s = 0.0, flush_s = 0.0;
  std::uint64_t fetches = 0, hits = 0, puts = 0;
  std::uint64_t fetch_bytes = 0, put_bytes = 0;
};

/// ResultStore decorator handed to CampaignRunner: forwards every call to
/// the real store inside a "layer" span and counts calls and bytes.
class TracedStore final : public store::ResultStore {
 public:
  TracedStore(store::ResultStore& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] const char* tier_name() const noexcept override {
    return inner_.tier_name();
  }
  [[nodiscard]] std::optional<std::string> fetch(
      const std::string& key) override {
    SpanScope span(tracer_, "store.fetch", "layer");
    std::optional<std::string> blob = inner_.fetch(key);
    counts.fetch_s += span.close();
    ++counts.fetches;
    if (blob) {
      ++counts.hits;
      counts.fetch_bytes += blob->size();
    }
    return blob;
  }
  void put(const std::string& key, std::string_view blob,
           store::EntryInfo info) override {
    SpanScope span(tracer_, "store.put", "layer");
    inner_.put(key, blob, std::move(info));
    counts.put_s += span.close();
    ++counts.puts;
    counts.put_bytes += blob.size();
  }
  [[nodiscard]] std::optional<store::EntryInfo> info(
      const std::string& key) override {
    return inner_.info(key);
  }
  [[nodiscard]] std::optional<double> lookup_cost(
      const std::string& cost_key) override {
    SpanScope span(tracer_, "store.lookup_cost", "layer");
    return inner_.lookup_cost(cost_key);
  }
  void record_cost(const std::string& cost_key,
                   double seconds_per_point) override {
    SpanScope span(tracer_, "store.record_cost", "layer");
    inner_.record_cost(cost_key, seconds_per_point);
  }
  [[nodiscard]] store::StoreStats stats() override { return inner_.stats(); }
  [[nodiscard]] std::vector<std::string> verify() override {
    return inner_.verify();
  }
  std::size_t gc() override { return inner_.gc(); }
  void flush() override {
    SpanScope span(tracer_, "store.flush", "layer");
    inner_.flush();
    counts.flush_s += span.close();
  }

  StoreCounts counts;

 private:
  store::ResultStore& inner_;
  Tracer* tracer_;
};

// ------------------------------------------------------------- workload

struct Workload {
  std::string name;
  bool uses_store = false;  ///< figures-cold and rerun-warm
  bool cold = false;        ///< fresh out-dir and cache-dir every replay
  bool exports = false;     ///< figures-cold writes the figure files
};

Workload workload_named(const std::string& name) {
  if (name == "compute") return {name, false, false, false};
  if (name == "figures-cold") return {name, true, true, true};
  if (name == "rerun-warm") return {name, true, false, false};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// The CLI's `campaign --scenarios=... --points=N` selection, followed by
/// the validation CampaignRunner performs before planning.
std::vector<engine::ScenarioSpec> resolve_specs(
    const std::vector<std::string>& names, const std::string& points) {
  const std::vector<engine::ScenarioSpec> registry =
      engine::merge_with_registry({});
  std::vector<engine::ScenarioSpec> specs;
  for (const std::string& name : names) {
    const auto it = std::find_if(
        registry.begin(), registry.end(),
        [&](const engine::ScenarioSpec& spec) { return spec.name == name; });
    if (it == registry.end()) {
      throw std::invalid_argument("unknown scenario '" + name + "'");
    }
    specs.push_back(*it);
  }
  for (engine::ScenarioSpec& spec : specs) {
    engine::apply_token(spec, "points", points);
    spec.validate();
    (void)spec.resolve_params();
  }
  return specs;
}

/// Every panel a campaign over `specs` solves, in result order.
struct PanelRef {
  const engine::ScenarioSpec* spec;
  sweep::SweepParameter axis;
};

std::vector<PanelRef> panels_of(
    const std::vector<engine::ScenarioSpec>& specs) {
  std::vector<PanelRef> panels;
  for (const engine::ScenarioSpec& spec : specs) {
    if (spec.kind() == engine::ScenarioKind::kSolve) continue;
    for (const sweep::SweepParameter axis : engine::scenario_panel_axes(spec)) {
      panels.push_back({&spec, axis});
    }
  }
  return panels;
}

std::vector<double> grid_of(const PanelRef& panel) {
  return sweep::panel_grid(panel.axis, panel.spec->points,
                           panel.spec->segment_limit());
}

/// SHA-256 over every result's canonical serialization — equal digests
/// mean bit-identical results. Each scenario is hashed on its own and the
/// scenarios are combined in name order, so the digest does not depend on
/// the order the seed gave them.
class Fingerprint {
 public:
  void add(const std::string& scenario, const core::Solution& solution) {
    scenarios_[scenario].update(store::serialize_solution(solution));
  }
  void add(const std::string& scenario, const sweep::PanelSeries& panel) {
    scenarios_[scenario].update(store::serialize_panel_series(panel));
  }
  void add(const std::vector<engine::ScenarioResult>& results) {
    for (const engine::ScenarioResult& result : results) {
      add(result.spec.name, result.solution);
      for (const sweep::PanelSeries& panel : result.panels) {
        add(result.spec.name, panel);
      }
    }
  }
  [[nodiscard]] std::string hex() {
    store::Sha256 all;
    for (auto& [scenario, hash] : scenarios_) {
      all.update(scenario + '\0' + store::to_hex(hash.finish()) + '\n');
    }
    return store::to_hex(all.finish());
  }

 private:
  std::map<std::string, store::Sha256> scenarios_;
};

std::string digest(const std::vector<engine::ScenarioResult>& results) {
  Fingerprint fingerprint;
  fingerprint.add(results);
  return fingerprint.hex();
}

/// The CLI's --out-dir export: <out>/<scenario>/<stem>.{dat,gp,csv}.
void export_results(const std::vector<engine::ScenarioResult>& results,
                    const fs::path& out_dir) {
  for (const engine::ScenarioResult& result : results) {
    if (result.panels.empty()) continue;
    const std::string dir = (out_dir / result.spec.name).string();
    fs::create_directories(dir);
    for (const sweep::PanelSeries& panel : result.panels) {
      if (!io::export_gnuplot_figure(panel, dir) ||
          !io::export_csv_figure(panel, dir)) {
        throw std::runtime_error("cannot write to " + dir);
      }
    }
  }
}

struct TreeSize {
  std::uint64_t bytes = 0;
  std::uint64_t files = 0;
};

TreeSize tree_size(const fs::path& root) {
  TreeSize size;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      size.bytes += entry.file_size();
      ++size.files;
    }
  }
  return size;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

constexpr double kMB = 1e6;

// ---------------------------------------------------------------- bench

class TraceBench {
 public:
  TraceBench(Workload workload, std::vector<std::string> names,
             std::string points, fs::path work_dir)
      : workload_(std::move(workload)),
        names_(std::move(names)),
        points_(std::move(points)),
        work_(std::move(work_dir)),
        specs_(resolve_specs(names_, points_)),
        panels_(panels_of(specs_)) {}

  /// Untimed preparation: rerun-warm's cache is filled by one cold run,
  /// as the CLI benchmark fills it before timing, and one untraced replay
  /// warms the allocator and page cache so the first timed replay does
  /// not pay for them.
  void fill() {
    if (workload_.uses_store && !workload_.cold) {
      fs::remove_all(work_ / "replay_cache");
      const std::unique_ptr<store::ResultStore> cache =
          store::make_store((work_ / "replay_cache").string());
      check(digest(
          engine::CampaignRunner({kThreads, cache.get()}).run(specs_)));
    }
    (void)replay(nullptr);
  }

  /// One cycle: three pairs of an untraced and a traced replay (which
  /// goes first alternates) and one pass of every layer probe.
  void cycle() {
    for (int pair = 0; pair < 3; ++pair) {
      double traced = 0.0;
      double untraced = 0.0;
      if (pair % 2 == 0) {
        untraced = replay(nullptr);
        traced = replay(&tracer_);
      } else {
        traced = replay(&tracer_);
        untraced = replay(nullptr);
      }
      record("trace.overhead", traced / untraced);
    }
    const int root = tracer_.begin("probes", "probe");
    probe_scenario();
    probe_backend();
    probe_solve();
    probe_kernel();
    probe_engine();
    probe_store();
    probe_io();
    tracer_.end(root, Clock::now());
  }

  void write_trace(const std::string& path) const { tracer_.write_json(path); }

  void print_result(std::size_t cycles) const {
    std::printf("{\"metrics\": {");
    const char* separator = "";
    for (const auto& [name, values] : samples_) {
      std::printf("%s\"%s\": %.17g", separator, name.c_str(), median(values));
      separator = ", ";
    }
    std::printf("}, \"fingerprint\": \"%s\", \"mismatches\": %zu, "
                "\"cycles\": %zu, \"replay_hit_ratio\": %.17g}\n",
                reference_.c_str(), mismatches_, cycles, replay_hit_ratio_);
  }

 private:
  void record(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  void check(const std::string& result_digest) {
    if (reference_.empty()) reference_ = result_digest;
    if (result_digest != reference_) ++mismatches_;
  }

  /// The workload itself, as `rexspeed campaign` runs it: resolve the
  /// scenarios, open the store, run the campaign, export. Returns the
  /// in-process wall time; traced replays also record engine.self_s.
  double replay(Tracer* tracer) {
    const fs::path out_dir = work_ / "replay_out";
    const fs::path cache_dir = work_ / "replay_cache";
    if (workload_.cold) {
      fs::remove_all(out_dir);
      fs::remove_all(cache_dir);
    }
    std::vector<engine::ScenarioResult> results;
    std::optional<StoreCounts> counts;
    SpanScope root(tracer, "replay " + workload_.name, "workload");
    {
      std::vector<engine::ScenarioSpec> specs;
      {
        SpanScope span(tracer, "scenario.resolve", "layer");
        specs = resolve_specs(names_, points_);
      }
      std::unique_ptr<store::ResultStore> local;
      if (workload_.uses_store) {
        SpanScope span(tracer, "store.open", "layer");
        local = store::make_store(cache_dir.string());
      }
      std::optional<TracedStore> traced;
      store::ResultStore* cache = local.get();
      if (tracer != nullptr && local) cache = &traced.emplace(*local, tracer);
      {
        SpanScope span(tracer, "engine.run", "engine");
        results = engine::CampaignRunner({kThreads, cache}).run(specs);
      }
      if (workload_.exports) {
        SpanScope span(tracer, "io.export", "layer");
        export_results(results, out_dir);
      }
      if (traced) counts = traced->counts;
    }
    const double wall = root.close();
    if (tracer != nullptr) {
      const double self = wall - tracer->layer_seconds_after(root.id());
      char args[64];
      std::snprintf(args, sizeof args, "\"engine.self_s\":%.9f", self);
      tracer->span(root.id()).args = args;
      record("engine.self_s", self);
      if (counts && counts->fetches > 0) {
        replay_hit_ratio_ = static_cast<double>(counts->hits) /
                            static_cast<double>(counts->fetches);
      }
    }
    check(digest(results));
    return wall;
  }

  void probe_scenario() {
    SpanScope span(&tracer_, "probe scenario", "probe");
    const Clock::time_point start = Clock::now();
    std::size_t rounds = 0;
    do {
      (void)resolve_specs(names_, points_);
      ++rounds;
    } while (seconds_between(start, Clock::now()) < 0.02);
    record("scenario.resolve_s",
           seconds_between(start, Clock::now()) / static_cast<double>(rounds));
  }

  /// Backend construction through the registry, and the deferred cache
  /// build of every panel that needs one — the campaign's plan and
  /// prepare phases, serially.
  void probe_backend() {
    SpanScope span(&tracer_, "probe backend", "probe");
    double build_s = 0.0;
    double prepare_s = 0.0;
    for (const PanelRef& panel : panels_) {
      core::ModelParams params = panel.spec->resolve_params();
      std::unique_ptr<core::SolverBackend> backend;
      {
        SpanScope build(&tracer_, "backend.build", "backend");
        backend = engine::make_backend(*panel.spec, std::move(params));
        build_s += build.close();
      }
      sweep::PanelSweep plan(std::move(backend), panel.spec->configuration,
                             panel.axis, grid_of(panel),
                             panel.spec->sweep_options(nullptr));
      if (plan.needs_prepare()) {
        SpanScope prepare(&tracer_, "backend.prepare", "backend");
        plan.prepare();
        prepare_s += prepare.close();
      }
    }
    record("backend.build_s", build_s);
    record("backend.prepare_s", prepare_s);
    record("backend.builds", static_cast<double>(panels_.size()));
  }

  /// Every panel through a serial run_panel_sweep: the per-point solve
  /// rate with no scheduling around it, ρ panels (one batched call) apart
  /// from the other axes (one backend rebind per point).
  void probe_solve() {
    SpanScope span(&tracer_, "probe solve", "probe");
    double rho_s = 0.0, axis_s = 0.0;
    std::size_t rho_points = 0, axis_points = 0;
    Fingerprint fingerprint;
    std::size_t next = 0;
    for (const engine::ScenarioSpec& spec : specs_) {
      fingerprint.add(spec.name, core::Solution{});  // sweeps carry none
      for (; next < panels_.size() && panels_[next].spec == &spec; ++next) {
        const PanelRef& panel = panels_[next];
        std::vector<double> grid = grid_of(panel);
        const std::size_t points = grid.size();
        SpanScope sweep_span(&tracer_, "solve.run_panel_sweep", "solve");
        const sweep::PanelSeries series = sweep::run_panel_sweep(
            engine::make_backend(spec), spec.configuration, panel.axis,
            std::move(grid), spec.sweep_options(nullptr));
        const double seconds = sweep_span.close();
        if (panel.axis == sweep::SweepParameter::kPerformanceBound) {
          rho_s += seconds;
          rho_points += points;
        } else {
          axis_s += seconds;
          axis_points += points;
        }
        fingerprint.add(spec.name, series);
      }
    }
    check(fingerprint.hex());
    serial_sweep_s_ = rho_s + axis_s;
    record("solve.rho_points_per_s", static_cast<double>(rho_points) / rho_s);
    record("solve.axis_points_per_s",
           static_cast<double>(axis_points) / axis_s);
    record("solve.points", static_cast<double>(rho_points + axis_points));
  }

  /// One first-order expansion table per distinct configuration, rebuilt
  /// until 20 ms have passed; the mean build time.
  void probe_kernel() {
    SpanScope span(&tracer_, "probe kernel", "probe");
    std::vector<core::ModelParams> params;
    for (const engine::ScenarioSpec& spec : specs_) {
      params.push_back(spec.resolve_params());
    }
    std::size_t builds = 0;
    std::size_t sink = 0;
    const Clock::time_point start = Clock::now();
    do {
      for (const core::ModelParams& p : params) {
        sink += core::ExpansionSoA::build(p).count;
        ++builds;
      }
    } while (seconds_between(start, Clock::now()) < 0.02);
    const double seconds = seconds_between(start, Clock::now());
    if (sink == 0) throw std::logic_error("empty expansion table");
    record("kernel.soa_build_us", 1e6 * seconds / static_cast<double>(builds));
  }

  /// The campaign runner alone (no store, no export) at the benchmark's
  /// thread count and at one thread.
  void probe_engine() {
    SpanScope span(&tracer_, "probe engine", "probe");
    std::vector<engine::ScenarioResult> results;
    {
      SpanScope run(&tracer_, "engine.run", "engine");
      results = engine::CampaignRunner({kThreads, nullptr}).run(specs_);
      run_s_ = run.close();
    }
    check(digest(results));
    double run_1t_s = 0.0;
    {
      SpanScope run(&tracer_, "engine.run_1t", "engine");
      results = engine::CampaignRunner({1, nullptr}).run(specs_);
      run_1t_s = run.close();
    }
    check(digest(results));
    record("engine.run_s", run_s_);
    record("engine.run_1t_s", run_1t_s);
    record("engine.stream_overhead", run_1t_s / serial_sweep_s_);
    record("engine.scaling_eff",
           run_1t_s / (static_cast<double>(kThreads) * run_s_));
  }

  /// The store's write path (a campaign into an empty store, plus the
  /// key derivation and encoding it does internally, timed directly) and
  /// its read path (the same campaign again, all hits, plus decoding).
  void probe_store() {
    SpanScope span(&tracer_, "probe store", "probe");
    const fs::path dir = work_ / "probe_cache";
    fs::remove_all(dir);
    std::vector<engine::ScenarioResult> results;
    StoreCounts cold;
    double cold_s = 0.0;
    {
      SpanScope run(&tracer_, "store.cold_run", "engine");
      const std::unique_ptr<store::ResultStore> local =
          store::make_store(dir.string());
      TracedStore traced(*local, &tracer_);
      results = engine::CampaignRunner({kThreads, &traced}).run(specs_);
      cold = traced.counts;
      cold_s = run.close();
    }
    check(digest(results));
    StoreCounts warm;
    double warm_s = 0.0;
    {
      SpanScope run(&tracer_, "store.warm_run", "engine");
      const std::unique_ptr<store::ResultStore> local =
          store::make_store(dir.string());
      TracedStore traced(*local, &tracer_);
      results = engine::CampaignRunner({kThreads, &traced}).run(specs_);
      warm = traced.counts;
      warm_s = run.close();
    }
    check(digest(results));
    fs::remove_all(dir);

    double key_s = 0.0;
    {
      SpanScope keys(&tracer_, "store.key", "store");
      for (const PanelRef& panel : panels_) {
        const std::unique_ptr<core::SolverBackend> backend =
            engine::make_backend(*panel.spec);
        const Clock::time_point start = Clock::now();
        const std::string key = store::panel_key(
            *backend, panel.spec->configuration, panel.axis, grid_of(panel),
            panel.spec->sweep_options(nullptr),
            panel.spec->verification_recall);
        key_s += seconds_between(start, Clock::now());
        if (key.empty()) throw std::logic_error("empty store key");
      }
    }
    double encode_s = 0.0;
    double decode_s = 0.0;
    {
      SpanScope codec(&tracer_, "store.codec", "store");
      for (const engine::ScenarioResult& result : results) {
        for (const sweep::PanelSeries& panel : result.panels) {
          const Clock::time_point start = Clock::now();
          const std::string blob = store::serialize_panel_series(panel);
          const Clock::time_point encoded = Clock::now();
          const sweep::PanelSeries decoded =
              store::deserialize_panel_series(blob);
          const Clock::time_point end = Clock::now();
          encode_s += seconds_between(start, encoded);
          decode_s += seconds_between(encoded, end);
          if (decoded.points.size() != panel.points.size()) ++mismatches_;
        }
      }
    }
    record("store.key_s", key_s);
    record("store.encode_s", encode_s);
    record("store.put_s", cold.put_s);
    record("store.puts", static_cast<double>(cold.puts));
    record("store.put_mb", static_cast<double>(cold.put_bytes) / kMB);
    record("store.flush_s", cold.flush_s);
    record("store.cold_extra_s", cold_s - run_s_);
    record("store.fetch_s", warm.fetch_s);
    record("store.fetches", static_cast<double>(warm.fetches));
    record("store.fetch_mb", static_cast<double>(warm.fetch_bytes) / kMB);
    record("store.hit_ratio", warm.fetches == 0
                                  ? 0.0
                                  : static_cast<double>(warm.hits) /
                                        static_cast<double>(warm.fetches));
    record("store.decode_s", decode_s);
    record("store.warm_vs_recompute", warm_s / run_s_);
  }

  /// Export formatting into memory (what io writes, minus the file
  /// system), then the real export into an empty directory.
  void probe_io() {
    SpanScope span(&tracer_, "probe io", "probe");
    const std::vector<engine::ScenarioResult> results =
        engine::CampaignRunner({kThreads, nullptr}).run(specs_);
    std::size_t formatted = 0;
    double format_s = 0.0;
    {
      SpanScope format(&tracer_, "io.format", "io");
      for (const engine::ScenarioResult& result : results) {
        for (const sweep::PanelSeries& panel : result.panels) {
          const sweep::Series series = sweep::to_series(panel);
          std::ostringstream csv;
          std::ostringstream dat;
          io::write_csv_series(csv, series);
          io::write_gnuplot_dat(dat, series);
          formatted += csv.view().size() + dat.view().size();
        }
      }
      format_s = format.close();
    }
    if (formatted == 0) throw std::logic_error("nothing formatted");
    const fs::path dir = work_ / "probe_out";
    fs::remove_all(dir);
    double export_s = 0.0;
    {
      SpanScope write(&tracer_, "io.export", "io");
      export_results(results, dir);
      export_s = write.close();
    }
    const TreeSize size = tree_size(dir);
    fs::remove_all(dir);
    record("io.format_s", format_s);
    record("io.export_s", export_s);
    record("io.export_mb", static_cast<double>(size.bytes) / kMB);
    record("io.files", static_cast<double>(size.files));
  }

  Workload workload_;
  std::vector<std::string> names_;
  std::string points_;
  fs::path work_;
  std::vector<engine::ScenarioSpec> specs_;
  std::vector<PanelRef> panels_;
  Tracer tracer_;
  std::map<std::string, std::vector<double>> samples_;
  std::string reference_;
  std::size_t mismatches_ = 0;
  double replay_hit_ratio_ = -1.0;
  double run_s_ = 0.0;
  double serial_sweep_s_ = 0.0;
};

std::vector<std::string> split_names(const std::string& list) {
  std::vector<std::string> names;
  std::istringstream stream(list);
  std::string name;
  while (std::getline(stream, name, ',')) {
    if (!name.empty()) names.push_back(name);
  }
  return names;
}

constexpr const char* kUsage =
    "usage: perfbench_trace --workload=NAME --points=N --scenarios=A,B,... "
    "--seconds=S --work-dir=DIR --trace-out=FILE\n"
    "       perfbench_trace --count-points --points=N --scenarios=A,B,...\n";

}  // namespace

int main(int argc, char** argv) try {
  const io::ArgParser args(argc, argv);
  const std::optional<std::string> points = args.get("points");
  std::vector<std::string> names = split_names(args.get_or("scenarios", ""));
  if (!points || names.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  if (args.has_flag("count-points")) {
    const std::vector<engine::ScenarioSpec> specs =
        resolve_specs(names, *points);
    std::size_t total = 0;
    for (const engine::ScenarioSpec& spec : specs) {
      if (spec.kind() == engine::ScenarioKind::kSolve) ++total;
    }
    for (const PanelRef& panel : panels_of(specs)) {
      total += grid_of(panel).size();
    }
    std::printf("%zu\n", total);
    return 0;
  }

  const Workload workload = workload_named(args.get_or("workload", ""));
  const std::optional<std::string> budget = args.get("seconds");
  const std::optional<std::string> work_dir = args.get("work-dir");
  const std::optional<std::string> trace_out = args.get("trace-out");
  if (!budget || !work_dir || !trace_out) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const double seconds = std::stod(*budget);
  fs::create_directories(*work_dir);
  TraceBench bench(workload, std::move(names), *points, *work_dir);
  bench.fill();
  const Clock::time_point start = Clock::now();
  std::size_t cycles = 0;
  do {
    bench.cycle();
    ++cycles;
  } while (seconds_between(start, Clock::now()) < seconds);
  bench.write_trace(*trace_out);
  bench.print_result(cycles);
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "perfbench_trace: %s\n", error.what());
  return 1;
}
