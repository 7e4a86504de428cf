#include "rexspeed/engine/shard/shard_coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "rexspeed/engine/panel_job.hpp"
#include "rexspeed/engine/scenario_file.hpp"
#include "rexspeed/engine/shard/frame.hpp"
#include "rexspeed/store/result_store.hpp"

namespace rexspeed::engine::shard {

namespace {

/// One distributable unit: a whole panel (scenario × axis) or a solve.
/// Its planned job stays with the coordinator: a worker's returned blob is
/// accepted against it, and any in-process fallback runs it.
struct Task {
  std::size_t scenario = 0;
  std::uint32_t panel = kSolveTask;
  double cost = 0.0;        ///< longest-first ordering key
  bool local_only = false;  ///< spec has no text form; never distributed
  bool done = false;
};

struct WorkerProc {
  pid_t pid = -1;
  int command_fd = -1;
  int result_fd = -1;
  unsigned index = 0;
  bool alive = false;
  bool busy = false;
  std::size_t task = 0;  ///< in-flight task id while busy
  FrameDecoder decoder;
};

/// Exception-safe fleet teardown: any worker still alive when run()
/// unwinds is killed and reaped so no child outlives a throwing
/// coordinator. The normal path retires every worker first, making this
/// a no-op.
struct Fleet {
  std::vector<WorkerProc> workers;

  ~Fleet() {
    for (WorkerProc& worker : workers) {
      if (!worker.alive) continue;
      if (worker.command_fd >= 0) close(worker.command_fd);
      if (worker.result_fd >= 0) close(worker.result_fd);
      ::kill(worker.pid, SIGKILL);
      int status = 0;
      while (waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
};

/// A worker that dies mid-assignment must surface as a failed write, not
/// a SIGPIPE killing the coordinator (and with it the campaign).
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() : previous_(std::signal(SIGPIPE, SIG_IGN)) {}
  ~ScopedSigpipeIgnore() {
    if (previous_ != SIG_ERR) std::signal(SIGPIPE, previous_);
  }

  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  void (*previous_)(int);
};

std::string describe_status(int status) {
  if (WIFEXITED(status)) {
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended with status " + std::to_string(status);
}

/// Reaps a worker, preserving its real exit status: only workers that
/// are still running (corrupt-frame retirement) get the SIGKILL; a
/// worker that already exited reports how it actually went.
std::string reap(pid_t pid) {
  int status = 0;
  pid_t got = waitpid(pid, &status, WNOHANG);
  if (got == 0) {
    ::kill(pid, SIGKILL);
    do {
      got = waitpid(pid, &status, 0);
    } while (got < 0 && errno == EINTR);
  }
  if (got != pid) return "not reapable";
  return describe_status(status);
}

}  // namespace

ShardCoordinator::ShardCoordinator(ShardOptions options)
    : options_(std::move(options)) {}

std::vector<ScenarioResult> ShardCoordinator::run(
    const std::vector<ScenarioSpec>& specs) {
  report_ = ShardReport{};
  std::unique_ptr<store::ResultStore> store;
  if (!options_.cache_spec.empty()) {
    store = store::make_store(options_.cache_spec);
  }

  // Phase 1 (serial, pre-fork): plan and fetch every scenario through the
  // engine's plan-and-cache path (panel_job.hpp) — the same validation,
  // backends, keys and PanelSweep construction as CampaignRunner — so
  // every input a worker would reject throws HERE, before any process
  // exists, and verified cache hits are served outright. No pool exists
  // before the fork, so the fetch runs serially.
  std::vector<ScenarioResult> results(specs.size());
  std::vector<ScenarioJob> jobs(specs.size());
  std::vector<std::string> spec_texts(specs.size());
  std::vector<Task> tasks;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    jobs[s] = plan_scenario(specs[s], store.get());
  }
  fetch_jobs(jobs);

  for (std::size_t s = 0; s < specs.size(); ++s) {
    const ScenarioSpec& spec = specs[s];
    ScenarioResult& result = results[s];
    ScenarioJob& job = jobs[s];
    result.spec = spec;
    bool local_only = false;
    try {
      spec_texts[s] = write_scenario(spec);
    } catch (const std::exception&) {
      // A spec with no text form (e.g. whitespace in the name) cannot
      // ride a kAssign frame; its tasks are computed in-process instead
      // of failing the campaign.
      local_only = true;
    }

    if (job.solve) {
      if (job.solve->hit) {
        result.solution = *job.solve->hit;
        ++report_.cache_hits;
        continue;
      }
      Task task;
      task.scenario = s;
      task.panel = kSolveTask;
      // Solves are single post-prepare lookups — rank below any panel,
      // exactly as CampaignRunner orders its stream.
      task.cost = -job.solve->backend->capabilities().cost_weight;
      task.local_only = local_only;
      tasks.push_back(task);
      continue;
    }

    result.panels.resize(job.panels.size());
    for (std::size_t p = 0; p < job.panels.size(); ++p) {
      PanelJob& panel = job.panels[p];
      if (panel.hit) {
        result.panels[p] = std::move(*panel.hit);
        ++report_.cache_hits;
        continue;
      }
      // The persisted measured cost seeds the longest-first order across
      // processes; the static prior covers cold stores.
      const double per_point = panel.persisted_cost().value_or(
          panel.sweep->cost_weight());
      Task task;
      task.scenario = s;
      task.panel = static_cast<std::uint32_t>(p);
      task.cost = per_point * static_cast<double>(panel.points);
      task.local_only = local_only;
      tasks.push_back(task);
    }
  }
  if (tasks.size() >= static_cast<std::size_t>(kSolveTask)) {
    throw std::length_error("ShardCoordinator: campaign exceeds task id space");
  }
  report_.tasks = tasks.size();

  // Runs a task's planned job in-process (each task at most once: it is
  // done afterwards). Its entry is stored with the others once the
  // campaign is complete (finish), as the in-process campaign does, so a
  // failed write is an incident, not a lost campaign. The entries point
  // into `results`, which no longer resizes.
  std::vector<store::PutEntry> local_entries;
  auto execute_local = [&](const Task& task) {
    ScenarioResult& result = results[task.scenario];
    ScenarioJob& job = jobs[task.scenario];
    if (task.panel == kSolveTask) {
      SolveJob& solve = *job.solve;
      result.solution = solve.compute();
      if (solve.cache != nullptr) {
        local_entries.push_back(solve.entry(result.solution));
      }
      return;
    }
    PanelJob& panel = job.panels[task.panel];
    double seconds_per_point = 0.0;
    result.panels[task.panel] = panel.compute(&seconds_per_point);
    if (panel.cache != nullptr) {
      local_entries.push_back(
          panel.entry(result.panels[task.panel], seconds_per_point));
    }
  };
  auto finish = [&] {
    if (store == nullptr) return;
    for (std::string& incident : store_results(*store, local_entries)) {
      report_.incidents.push_back({0, std::move(incident)});
    }
  };

  // Longest-first shared queue (stable: equal costs keep scenario
  // order). Workers take ONE task at a time — the tail work-steals
  // itself, no static partition to strand a slow panel behind.
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&tasks](std::size_t a, std::size_t b) {
                     return tasks[a].cost > tasks[b].cost;
                   });
  std::deque<std::size_t> queue;
  for (std::size_t id : order) {
    if (!tasks[id].local_only) {
      queue.push_back(id);
      continue;
    }
    execute_local(tasks[id]);
    tasks[id].done = true;
    ++report_.completed_in_process;
  }
  if (queue.empty()) {
    finish();
    return results;
  }

  const ScopedSigpipeIgnore sigpipe_guard;
  Fleet fleet;
  const unsigned worker_count = std::min<std::size_t>(
      std::max(1u, options_.workers), queue.size());
  for (unsigned w = 0; w < worker_count; ++w) {
    int command[2] = {-1, -1};
    int result[2] = {-1, -1};
    if (pipe(command) != 0) {
      report_.incidents.push_back({w, "pipe failed: spawning fewer workers"});
      continue;
    }
    if (pipe(result) != 0) {
      close(command[0]);
      close(command[1]);
      report_.incidents.push_back({w, "pipe failed: spawning fewer workers"});
      continue;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(command[0]);
      close(command[1]);
      close(result[0]);
      close(result[1]);
      report_.incidents.push_back({w, "fork failed: spawning fewer workers"});
      continue;
    }
    if (pid == 0) {
      // Child. Close every parent-side fd (ours and earlier siblings') —
      // a sibling holding a copy of another worker's pipe write-end
      // would mask that worker's EOF-based death detection.
      close(command[1]);
      close(result[0]);
      for (const WorkerProc& other : fleet.workers) {
        close(other.command_fd);
        close(other.result_fd);
      }
      WorkerConfig config;
      config.index = w;
      config.cache_spec = options_.cache_spec;
      for (const WorkerFault& fault : options_.faults) {
        if (fault.worker == w) config.fault = fault;
      }
      run_worker(command[0], result[1], config);  // never returns
    }
    close(command[0]);
    close(result[1]);
    WorkerProc worker;
    worker.pid = pid;
    worker.command_fd = command[1];
    worker.result_fd = result[0];
    worker.index = w;
    worker.alive = true;
    fleet.workers.push_back(std::move(worker));
    ++report_.workers_spawned;
  }

  std::size_t remaining = queue.size();
  auto mark_done = [&](std::size_t id) {
    if (tasks[id].done) return;
    tasks[id].done = true;
    --remaining;
  };

  /// Retires a dead (or corrupt) worker: reap with real exit status,
  /// record the incident, and requeue its in-flight task at the FRONT —
  /// it was the longest outstanding task and should restart first.
  auto retire = [&](WorkerProc& worker, const std::string& why) {
    if (!worker.alive) return;
    worker.alive = false;
    ++report_.worker_deaths;
    close(worker.command_fd);
    close(worker.result_fd);
    worker.command_fd = -1;
    worker.result_fd = -1;
    report_.incidents.push_back(
        {worker.index, "worker " + std::to_string(worker.index) + " " + why +
                           " (" + reap(worker.pid) + ")"});
    if (worker.busy) {
      worker.busy = false;
      if (!tasks[worker.task].done) {
        queue.push_front(worker.task);
        ++report_.requeued;
      }
    }
  };

  auto dispatch = [&]() {
    for (WorkerProc& worker : fleet.workers) {
      if (!worker.alive || worker.busy) continue;
      while (!queue.empty() && tasks[queue.front()].done) queue.pop_front();
      if (queue.empty()) break;
      const std::size_t id = queue.front();
      AssignFrame assign;
      assign.task = static_cast<std::uint32_t>(id);
      assign.panel = tasks[id].panel;
      assign.spec_text = spec_texts[tasks[id].scenario];
      if (!write_all(worker.command_fd,
                     encode_frame(FrameTag::kAssign, encode_assign(assign)))) {
        retire(worker, "rejected an assignment");
        continue;
      }
      queue.pop_front();
      worker.busy = true;
      worker.task = id;
    }
  };

  auto handle_frame = [&](WorkerProc& worker, const Frame& frame) {
    switch (frame.tag) {
      case FrameTag::kHello: {
        const HelloFrame hello = decode_hello(frame.payload);
        if (hello.protocol != kProtocolVersion) {
          throw FrameError("spoke protocol " + std::to_string(hello.protocol) +
                           ", coordinator speaks " +
                           std::to_string(kProtocolVersion));
        }
        return;
      }
      case FrameTag::kResult: {
        ResultFrame result = decode_result(frame.payload);
        if (!worker.busy || result.task != worker.task ||
            result.task >= tasks.size()) {
          report_.incidents.push_back(
              {worker.index, "worker " + std::to_string(worker.index) +
                                 " sent a stray result for task " +
                                 std::to_string(result.task) + "; ignored"});
          return;
        }
        worker.busy = false;
        Task& task = tasks[result.task];
        const ScenarioJob& job = jobs[task.scenario];
        bool merged = false;
        if (task.panel == kSolveTask) {
          if (std::optional<core::Solution> solution =
                  job.solve->accept(result.blob)) {
            results[task.scenario].solution = *solution;
            merged = true;
          }
        } else if (std::optional<sweep::PanelSeries> series =
                       job.panels[task.panel].accept(result.blob)) {
          results[task.scenario].panels[task.panel] = std::move(*series);
          merged = true;
        }
        if (merged) {
          mark_done(result.task);
          ++report_.completed_by_workers;
          return;
        }
        // The frame survived its checksum but the RXSC blob inside did
        // not verify (or has the wrong shape) — recompute in-process;
        // the campaign's results stay byte-identical either way.
        report_.incidents.push_back(
            {worker.index, "worker " + std::to_string(worker.index) +
                               " returned an unusable result for task " +
                               std::to_string(result.task) +
                               "; recomputed in-process"});
        execute_local(task);
        mark_done(result.task);
        ++report_.completed_in_process;
        return;
      }
      case FrameTag::kFailure: {
        const FailureFrame failure = decode_failure(frame.payload);
        if (worker.busy && failure.task == worker.task) worker.busy = false;
        report_.incidents.push_back(
            {worker.index, "worker " + std::to_string(worker.index) +
                               " failed task " + std::to_string(failure.task) +
                               ": " + failure.message +
                               "; recomputing in-process"});
        if (failure.task < tasks.size() && !tasks[failure.task].done) {
          // Inputs were validated pre-fork, so a genuine compute error
          // reproduces here and throws to the caller — the same error a
          // serial CampaignRunner would have raised. A worker whose cache
          // write failed lands here too; the recompute is stored with the
          // rest, and a write that fails again is an incident.
          execute_local(tasks[failure.task]);
          mark_done(failure.task);
          ++report_.completed_in_process;
        }
        return;
      }
      default:
        throw FrameError("sent an unexpected frame tag");
    }
  };

  dispatch();
  std::vector<char> buffer(64 * 1024);
  while (remaining > 0) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t i = 0; i < fleet.workers.size(); ++i) {
      if (!fleet.workers[i].alive) continue;
      fds.push_back({fleet.workers[i].result_fd, POLLIN, 0});
      owner.push_back(i);
    }
    if (fds.empty()) break;  // fleet gone — fall back below
    const int ready = poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself broke — abandon the fleet, fall back below
    }
    for (std::size_t j = 0; j < fds.size(); ++j) {
      if (fds[j].revents == 0) continue;
      WorkerProc& worker = fleet.workers[owner[j]];
      if (!worker.alive) continue;
      const ssize_t got = read(worker.result_fd, buffer.data(), buffer.size());
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        retire(worker, std::string("result pipe read failed: ") +
                           std::strerror(errno));
        continue;
      }
      if (got == 0) {
        retire(worker, worker.decoder.mid_frame()
                           ? "closed its result pipe mid-frame"
                           : "closed its result pipe");
        continue;
      }
      worker.decoder.feed(buffer.data(), static_cast<std::size_t>(got));
      try {
        while (std::optional<Frame> frame = worker.decoder.next()) {
          handle_frame(worker, *frame);
          if (!worker.alive) break;
        }
      } catch (const FrameError& error) {
        retire(worker, std::string("sent a corrupt frame: ") + error.what());
      }
    }
    dispatch();
  }

  // Abandoned-fleet path (poll failure): retire survivors so their
  // in-flight tasks requeue, then compute everything left in-process —
  // the campaign completes byte-identically no matter what died.
  if (remaining > 0) {
    for (WorkerProc& worker : fleet.workers) {
      retire(worker, "abandoned by the coordinator");
    }
    while (!queue.empty()) {
      const std::size_t id = queue.front();
      queue.pop_front();
      if (tasks[id].done) continue;
      execute_local(tasks[id]);
      mark_done(id);
      ++report_.completed_in_process;
    }
  }

  // Graceful shutdown: a kShutdown frame plus command-pipe EOF behind
  // it, then reap. Idle workers are blocked in read and exit promptly.
  const std::string shutdown = encode_frame(FrameTag::kShutdown, "");
  for (WorkerProc& worker : fleet.workers) {
    if (!worker.alive) continue;
    (void)write_all(worker.command_fd, shutdown);
    close(worker.command_fd);
    worker.command_fd = -1;
  }
  for (WorkerProc& worker : fleet.workers) {
    if (!worker.alive) continue;
    int status = 0;
    while (waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    close(worker.result_fd);
    worker.result_fd = -1;
    worker.alive = false;
  }

  finish();
  return results;
}

}  // namespace rexspeed::engine::shard
