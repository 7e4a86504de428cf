#include "rexspeed/engine/shard/worker.hpp"

#include <csignal>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>
#include <unistd.h>

#include "rexspeed/engine/backend_registry.hpp"
#include "rexspeed/engine/panel_job.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/shard/frame.hpp"
#include "rexspeed/store/result_store.hpp"
#include "rexspeed/store/serialize.hpp"

namespace rexspeed::engine::shard {

namespace {

/// Computes one assignment into a result frame: the one panel or solve is
/// planned through the engine's plan-and-cache step (a verified hit skips
/// the solve), run serially, and stored. Specs were validated by the
/// coordinator before any fork, so a throw here is exceptional — it
/// becomes a kFailure frame, not a dead worker.
ResultFrame compute(const AssignFrame& assign, store::ResultStore* cache) {
  const ScenarioSpec spec = parse_scenario(assign.spec_text);
  core::ModelParams params = resolve_scenario(spec);
  ResultFrame result;
  result.task = assign.task;
  ScenarioJob planned;
  if (assign.panel == kSolveTask) {
    planned.solve = plan_solve(spec, std::move(params), cache);
    fetch_jobs({&planned, 1});
    SolveJob& job = *planned.solve;
    result.blob = store::encode_solution_entry(job.hit ? std::move(*job.hit)
                                                       : job.run());
  } else {
    const std::vector<sweep::SweepParameter> axes = scenario_panel_axes(spec);
    if (assign.panel >= axes.size()) {
      throw std::invalid_argument("shard: scenario '" + spec.name +
                                  "' has no panel " +
                                  std::to_string(assign.panel));
    }
    planned.panels.push_back(
        plan_panel(spec, std::move(params), axes[assign.panel], cache));
    fetch_jobs({&planned, 1});
    PanelJob& job = planned.panels.front();
    result.blob = store::encode_panel_entry(
        job.hit ? std::move(*job.hit) : job.run(&result.seconds_per_point));
  }
  // Workers exit via _exit (skipping destructors), so persist eagerly.
  if (cache != nullptr) cache->flush();
  return result;
}

}  // namespace

void run_worker(int command_fd, int result_fd, const WorkerConfig& config) {
  // A coordinator that died leaves result writes failing with EPIPE, not
  // a process-killing SIGPIPE; the write_all failure path exits cleanly.
  std::signal(SIGPIPE, SIG_IGN);

  std::unique_ptr<store::ResultStore> cache;
  if (!config.cache_spec.empty()) {
    try {
      cache = store::make_store(config.cache_spec);
    } catch (const std::exception&) {
      cache = nullptr;  // an unusable store degrades to uncached compute
    }
  }

  HelloFrame hello;
  hello.worker = config.index;
  if (!write_all(result_fd, encode_frame(FrameTag::kHello,
                                         encode_hello(hello)))) {
    _exit(0);
  }
  const WorkerFault& fault = config.fault;
  if (fault.kind == WorkerFault::Kind::kExitAtStart &&
      fault.worker == config.index) {
    _exit(fault.exit_code);
  }

  FrameDecoder decoder;
  unsigned assignments = 0;
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(command_fd, decoder);
    } catch (const FrameError&) {
      _exit(1);  // corrupt command stream: nothing sane left to serve
    }
    if (!frame || frame->tag == FrameTag::kShutdown) _exit(0);
    if (frame->tag != FrameTag::kAssign) continue;  // ignore stray frames

    AssignFrame assign;
    try {
      assign = decode_assign(frame->payload);
    } catch (const FrameError&) {
      _exit(1);
    }
    ++assignments;

    std::string reply;
    try {
      const ResultFrame result = compute(assign, cache.get());
      if (fault.kind == WorkerFault::Kind::kKillMidPanel &&
          fault.worker == config.index && assignments == fault.nth) {
        // The panel was computed but never reported — from the
        // coordinator's side this is a crash mid-panel, and the work must
        // be requeued. SIGKILL cannot be caught, so nothing below runs.
        raise(SIGKILL);
      }
      reply = encode_frame(FrameTag::kResult, encode_result(result));
    } catch (const std::exception& error) {
      FailureFrame failure;
      failure.task = assign.task;
      failure.message = error.what();
      reply = encode_frame(FrameTag::kFailure, encode_failure(failure));
    }
    if (fault.kind == WorkerFault::Kind::kTruncateResult &&
        fault.worker == config.index && assignments == fault.nth) {
      // Half a frame, then gone: the pipe closes mid-frame and the
      // coordinator's decoder must never surface a partial result.
      (void)write_all(result_fd,
                      std::string_view(reply).substr(0, reply.size() / 2));
      _exit(0);
    }
    if (!write_all(result_fd, reply)) _exit(0);
  }
}

}  // namespace rexspeed::engine::shard
