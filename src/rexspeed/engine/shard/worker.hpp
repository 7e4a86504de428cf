#pragma once

#include <string>
#include <vector>

namespace rexspeed::engine::shard {

/// Deterministic misbehavior injected into one worker, so the
/// fault-injection suites exercise the coordinator's requeue paths
/// without racing real signals from the test process. A production run
/// carries no faults; the hooks cost one comparison per assignment.
struct WorkerFault {
  enum class Kind {
    kNone,
    /// _exit(exit_code) right after the hello — "a worker that exits
    /// nonzero" before doing any work.
    kExitAtStart,
    /// raise(SIGKILL) after computing the nth assigned task but before
    /// sending its result — a crash mid-panel; the finished work is lost
    /// and the coordinator must requeue it.
    kKillMidPanel,
    /// Write only the first half of the nth result frame, then _exit(0)
    /// — a pipe closed mid-frame; the coordinator's decoder must treat
    /// the truncated stream as a dead worker, never as a result.
    kTruncateResult,
  };
  Kind kind = Kind::kNone;
  unsigned worker = 0;  ///< victim worker index
  unsigned nth = 1;     ///< which assignment/result (1-based) triggers it
  int exit_code = 3;    ///< kExitAtStart's exit status
};

/// Everything a worker process needs — deliberately no pointers into the
/// coordinator's solver state: tasks arrive as spec text in kAssign
/// frames, so the same loop can later serve a socket instead of an
/// inherited pipe (the rexspeedd seam).
struct WorkerConfig {
  unsigned index = 0;
  /// Shared store spec ("" = uncached) — every worker opens its own
  /// handle on the same directory; hits and measured costs flow across
  /// processes through it.
  std::string cache_spec;
  WorkerFault fault;  ///< kNone unless this worker is the victim
};

/// The worker main loop: hello, then serve kAssign frames (plan and run
/// through engine/panel_job.hpp, reply kResult / kFailure) until
/// kShutdown, EOF or a corrupt command stream. Never returns; exits the process via _exit so the
/// forked child cannot run the parent's atexit machinery.
[[noreturn]] void run_worker(int command_fd, int result_fd,
                             const WorkerConfig& config);

}  // namespace rexspeed::engine::shard
