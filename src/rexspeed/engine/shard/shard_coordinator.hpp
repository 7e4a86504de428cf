#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/engine/shard/worker.hpp"

namespace rexspeed::engine::shard {

struct ShardOptions {
  /// Worker processes to fork (clamped to [1, task count]). Each worker
  /// computes its assigned panels serially — campaign parallelism is the
  /// process fan-out, and results are bit-identical at any width.
  unsigned workers = 2;
  /// Shared persistent result store spec (store::make_store vocabulary;
  /// "" runs uncached). The coordinator serves verified hits before
  /// distributing anything, and every worker opens its own handle on the
  /// same directory, so hits and measured per-point costs flow across
  /// processes.
  std::string cache_spec;
  /// Test-only deterministic fault injection (see WorkerFault). Empty in
  /// production.
  std::vector<WorkerFault> faults;
};

/// One recorded anomaly: worker deaths (with exit status), corrupt
/// frames, requeues, protocol mismatches, failed tasks, and cache writes
/// the coordinator could not make (as CampaignRunner::incidents words
/// them). The campaign still completes — incidents exist so operators and
/// the fault-injection suites can see what the coordinator absorbed.
struct ShardIncident {
  unsigned worker = 0;  ///< the worker concerned (0 for cache writes)
  std::string detail;
};

struct ShardReport {
  unsigned workers_spawned = 0;
  std::size_t tasks = 0;       ///< distributed units (cache hits excluded)
  std::size_t cache_hits = 0;  ///< slots filled from the store, pre-fork
  std::size_t completed_by_workers = 0;
  std::size_t completed_in_process = 0;  ///< fallback-computed tasks
  std::size_t requeued = 0;    ///< in-flight tasks recovered from deaths
  unsigned worker_deaths = 0;
  std::vector<ShardIncident> incidents;
};

/// Multi-process campaign sharding (ROADMAP item 3): forks N worker
/// processes connected by pipe pairs, speaks the length-prefixed
/// checksummed frame protocol of frame.hpp (kAssign carries the scenario
/// as write_scenario text; kResult carries the store's RXSC blob), and
/// merges the streamed-back results into the same std::vector
/// <ScenarioResult> shape CampaignRunner::run returns.
///
/// Scheduling: whole panels (and solves) are the work unit. The task
/// queue is ordered longest-first — by the store's persisted measured
/// per-point costs when available (PR 8's cost table), by the backend's
/// static cost_weight prior otherwise — and workers are handed ONE task
/// at a time, requesting the next by returning a result: the tail
/// work-steals itself, and no static partition can strand a slow panel
/// behind a fast worker's empty queue.
///
/// Crash safety: a worker that dies (crash, kill, closed pipe, corrupt
/// frame, nonzero exit) has its in-flight task requeued transparently
/// and the death recorded as an incident; when every worker is gone the
/// coordinator computes the remainder in-process. The campaign always
/// completes with byte-identical output.
///
/// Bit-identity contract (tested): the coordinator, its workers and the
/// in-process CampaignRunner plan every task through the same
/// plan-and-cache step (engine/panel_job.hpp) and run the same
/// sweep::PanelSweep per-point kernel, and result blobs round-trip
/// bit-exactly (store/serialize.hpp), so the merged campaign equals a
/// serial CampaignRunner::run byte for byte — any worker count, any
/// schedule, with or without worker deaths.
///
/// The transport is deliberately two fds + a frame codec: swapping the
/// forked pipe pair for a connected socket is the rexspeedd daemon seam
/// (ROADMAP item 1).
class ShardCoordinator {
 public:
  explicit ShardCoordinator(ShardOptions options = {});

  /// Runs the campaign across the worker fleet. Scenario validation
  /// errors throw before any process is forked (same guarantees as
  /// CampaignRunner::run); transport-level trouble never throws — it is
  /// absorbed, requeued and reported in report().
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<ScenarioSpec>& specs);

  /// Accounting for the most recent run().
  [[nodiscard]] const ShardReport& report() const noexcept {
    return report_;
  }

 private:
  ShardOptions options_;
  ShardReport report_;
};

}  // namespace rexspeed::engine::shard
