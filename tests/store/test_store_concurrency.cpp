// The local store under concurrent writers: forked processes putting,
// recording costs and flushing counters into ONE cache directory — the
// shape of several campaigns (or shard workers) sharing a --cache-dir —
// must never fail a write, must leave a directory verify() passes, and
// must lose no counter update: the persisted hits, misses and stores sum
// every writer's exactly. A `cache verify`/`gc` run next to a live writer
// must leave that writer's in-flight temp file alone.

#include "rexspeed/store/result_store.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/serialize.hpp"

namespace rexspeed::store {
namespace {

namespace fs = std::filesystem;

constexpr int kProcesses = 4;
constexpr int kRounds = 60;
constexpr int kKeys = 8;

/// Every process writes the same bytes under the same key, as content
/// addressing guarantees in real use.
std::string key_of(int k) {
  return to_hex(fnv1a64("rexspeed-concurrency-" + std::to_string(k)));
}

std::string blob_of(int k) {
  core::Solution solution;
  solution.pair().feasible = true;
  solution.pair().w_opt = 1000.0 + k;
  return encode_solution_entry(solution);
}

/// One writer process's workload; returns normally only if no store call
/// threw.
void hammer(const fs::path& dir) {
  LocalResultStore store(dir);
  for (int round = 0; round < kRounds; ++round) {
    const int k = round % kKeys;
    (void)store.fetch(key_of(k));
    EntryInfo info;
    info.kind = "solution";
    if (round % 2 == 0) {
      store.put(key_of(k), blob_of(k), info);
      store.record_cost(key_of(k), 1e-3 * (k + 1));
    } else {
      // The same writes through put_many, which reports failures instead
      // of throwing them.
      info.cost_seconds_per_point = 1e-3 * (k + 1);
      const PutEntry entry{key_of(k), info, [k] { return blob_of(k); },
                           key_of(k)};
      const PutFailures failures = store.put_many({entry}, {});
      for (const auto* list : {&failures.entries, &failures.costs}) {
        if (!list->empty()) throw StoreError(list->front());
      }
    }
    store.flush();
  }
}

TEST(StoreConcurrency, ForkedWritersShareOneDirectoryCleanly) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("rexspeed_store_concurrency_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  { LocalResultStore create(dir); }

  std::vector<pid_t> children;
  for (int p = 0; p < kProcesses; ++p) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      int code = 0;
      try {
        hammer(dir);
      } catch (const std::exception&) {
        code = 1;
      }
      _exit(code);  // never return into the test runner from a child
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    pid_t got = 0;
    do {
      got = waitpid(pid, &status, 0);
    } while (got < 0 && errno == EINTR);
    ASSERT_EQ(got, pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "a writer process threw (status " << status << ")";
  }

  LocalResultStore store(dir);
  EXPECT_TRUE(store.verify().empty());
  // Every round of every writer fetched once (a hit or a miss, never a
  // corrupt entry: racing writers put identical bytes) and stored once.
  const StoreStats merged = store.stats();
  constexpr auto kCalls = static_cast<std::uint64_t>(kProcesses * kRounds);
  EXPECT_EQ(merged.stores, kCalls);
  EXPECT_EQ(merged.hits + merged.misses, kCalls);
  EXPECT_EQ(merged.corrupt, 0u);
  for (int k = 0; k < kKeys; ++k) {
    const std::optional<std::string> blob = store.fetch(key_of(k));
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(*blob, blob_of(k));
  }
  EXPECT_EQ(store.stats().entries, static_cast<std::uint64_t>(kKeys));
  fs::remove_all(dir);
}

/// Waits for `pid`; true when it was reaped.
bool reap(pid_t pid) {
  int status = 0;
  pid_t got = 0;
  do {
    got = waitpid(pid, &status, 0);
  } while (got < 0 && errno == EINTR);
  return got == pid;
}

TEST(StoreConcurrency, GcSparesTheTempFileOfALiveWriter) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("rexspeed_store_inflight_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  LocalResultStore store(dir);

  // The pid of a writer that has exited and been reaped, and a live
  // process that stands in for a writer mid-put. Only EXPECTs follow the
  // second fork, so the test always reaches the kill below.
  const pid_t dead = fork();
  if (dead == 0) _exit(0);
  ASSERT_GE(dead, 0) << "fork failed";
  ASSERT_TRUE(reap(dead));
  const pid_t live = fork();
  ASSERT_GE(live, 0) << "fork failed";
  if (live == 0) {
    pause();
    _exit(0);
  }

  // write_file_atomic's temp names: <file>.<pid>.<n>.tmp.
  const std::string live_temp =
      key_of(0) + ".bin." + std::to_string(live) + ".0.tmp";
  const std::string dead_temp =
      key_of(1) + ".bin." + std::to_string(dead) + ".0.tmp";
  std::ofstream(dir / "entries" / live_temp) << "partial";
  std::ofstream(dir / "entries" / dead_temp) << "partial";

  EXPECT_EQ(store.verify(), std::vector<std::string>{dead_temp});
  EXPECT_EQ(store.gc(), 1u);
  EXPECT_TRUE(fs::exists(dir / "entries" / live_temp));
  EXPECT_FALSE(fs::exists(dir / "entries" / dead_temp));

  // Once its writer is gone the temp is a leftover like any other.
  ::kill(live, SIGKILL);
  EXPECT_TRUE(reap(live));
  EXPECT_EQ(store.verify(), std::vector<std::string>{live_temp});
  EXPECT_EQ(store.gc(), 1u);
  EXPECT_FALSE(fs::exists(dir / "entries" / live_temp));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rexspeed::store
