// The CLI's figure export, end to end through the real binary:
//
//   1. `rexspeed campaign --points=7 --out-dir` over the whole registry
//      writes exactly the files pinned in golden/registry_p7.sha256, byte
//      for byte (52 panels × .dat/.gp/.csv). The manifest is `sha256sum`
//      output; regenerate it only for an intended format or solver change:
//        rexspeed campaign --points=7 --out-dir=OUT
//        (cd OUT && find . -type f | sed 's|^\./||' | LC_ALL=C sort |
//         xargs sha256sum) > tests/io/golden/registry_p7.sha256
//   2. An export that cannot be written fails the run loudly (exit 1,
//      "cannot write to" on stderr) rather than leaving a partial tree.
//   3. The CLI contracts around the kernels: `rexspeed kernels` opens
//      with `active tier: scalar|avx2` (REXSPEED_FORCE_SCALAR=1 pins
//      scalar), and the removed `--batch=` flag is a usage error (exit 2).
//   4. The cache's CLI face: `cache stats` prints the canonical-to-encoded
//      ratio its sidecars record; a campaign whose cache writes fail
//      prints one incident line and otherwise exactly what an uncached
//      run prints and exports (exit 0) — across `--workers` too, where
//      each worker's failed write adds an incident line of its own —
//      while `cache` on an unusable directory stays a cache error
//      (exit 4), and so does a sweep whose one cache write fails.
//   5. Three campaigns started at once over one `--cache-dir` (each with
//      its own `--out-dir`) all succeed, all export the pinned bytes, leave
//      a cache that verifies clean, and persist every lookup: hits +
//      misses are exactly three times what one run records.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "rexspeed/store/hash.hpp"

namespace rexspeed::io {
namespace {

namespace fs = std::filesystem;

fs::path golden_dir() {
  return fs::path(__FILE__).parent_path() / "golden";
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string quoted(const fs::path& path) {
  std::string text = "\"";
  text += path.string();
  text += '"';
  return text;
}

/// Runs the CLI with `arguments` through the shell (so they may carry
/// redirections), with `env` assignments (`NAME=value ...`) in front; its
/// exit code, or -1 when it did not exit normally.
int run_cli(const std::string& arguments, const std::string& env = "") {
  std::string command = env;
  if (!command.empty()) command += ' ';
  command += quoted(REXSPEED_CLI_PATH);
  command += ' ';
  command += arguments;
  const int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

class CliExport : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = fs::temp_directory_path() /
            ("rexspeed_cli_export_" + std::to_string(::getpid()));
    fs::remove_all(work_);
    fs::create_directories(work_);
  }
  void TearDown() override { fs::remove_all(work_); }

  fs::path work_;
};

/// Checks that `out` holds exactly the exports pinned in
/// golden/registry_p7.sha256, byte for byte.
void expect_pinned_registry_exports(const fs::path& out) {
  std::map<std::string, std::string> pinned;
  std::istringstream manifest(read_file(golden_dir() / "registry_p7.sha256"));
  std::string line;
  while (std::getline(manifest, line)) {
    // `sha256sum` lines: 64 hex digits, two spaces, the relative path.
    ASSERT_GT(line.size(), 66u) << "malformed manifest line: " << line;
    pinned[line.substr(66)] = line.substr(0, 64);
  }
  ASSERT_EQ(pinned.size(), 156u);

  std::map<std::string, std::string> written;
  for (const auto& entry : fs::recursive_directory_iterator(out)) {
    if (!entry.is_regular_file()) continue;
    written[fs::relative(entry.path(), out).generic_string()] =
        store::to_hex(store::Sha256::of(read_file(entry.path())));
  }
  for (const auto& [path, digest] : pinned) {
    const auto it = written.find(path);
    if (it == written.end()) {
      ADD_FAILURE() << "missing export " << path;
      continue;
    }
    EXPECT_EQ(it->second, digest) << path << " differs from its pinned bytes";
  }
  for (const auto& [path, digest] : written) {
    EXPECT_EQ(pinned.count(path), 1u) << "unpinned export " << path;
  }
}

TEST_F(CliExport, RegistryCampaignMatchesThePinnedManifest) {
  const fs::path out = work_ / "out";
  ASSERT_EQ(run_cli("campaign --points=7 --out-dir=" + quoted(out) + " > " +
                    quoted(work_ / "stdout.txt")),
            0);
  expect_pinned_registry_exports(out);
}

/// The value of the `name:` line of `cache stats` output.
unsigned long stats_field(const std::string& stats, const std::string& name) {
  const std::size_t at = stats.find(name + ":");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << name << " line in:\n" << stats;
    return 0;
  }
  return std::stoul(stats.substr(at + name.size() + 1));
}

TEST_F(CliExport, ConcurrentCampaignsShareOneCacheDirectory) {
  const std::string campaign = "campaign --points=7 --threads=2 --cache-dir=";
  // What one run alone records.
  const fs::path solo = work_ / "solo_cache";
  ASSERT_EQ(run_cli(campaign + quoted(solo) + " > /dev/null"), 0);
  const fs::path solo_stats = work_ / "solo_stats.txt";
  ASSERT_EQ(run_cli("cache stats --cache-dir=" + quoted(solo) + " > " +
                    quoted(solo_stats)),
            0);
  const std::string solo_text = read_file(solo_stats);
  const unsigned long one_run =
      stats_field(solo_text, "hits") + stats_field(solo_text, "misses");
  ASSERT_GT(one_run, 0u) << solo_text;

  // Three runs at once over one shared cache, each exporting to its own
  // directory; every run's exit status lands in its own file.
  const fs::path cache = work_ / "cache";
  constexpr int kRuns = 3;
  std::string script;
  for (int run = 0; run < kRuns; ++run) {
    const std::string n = std::to_string(run);
    script += "(" + quoted(REXSPEED_CLI_PATH) + " " + campaign +
              quoted(cache) +
              " --out-dir=" + quoted(work_ / ("run" + n) / "out") + " > " +
              quoted(work_ / ("stdout" + n)) + "; echo $? > " +
              quoted(work_ / ("status" + n)) + ") & ";
  }
  script += "wait";
  ASSERT_EQ(std::system(script.c_str()), 0);
  for (int run = 0; run < kRuns; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    EXPECT_EQ(read_file(work_ / ("status" + std::to_string(run))), "0\n");
    expect_pinned_registry_exports(work_ / ("run" + std::to_string(run)) /
                                   "out");
  }

  const fs::path verify = work_ / "verify.txt";
  EXPECT_EQ(run_cli("cache verify --cache-dir=" + quoted(cache) + " > " +
                    quoted(verify)),
            0);
  EXPECT_EQ(read_file(verify), "ok: every entry verifies\n");
  const fs::path stats_path = work_ / "stats.txt";
  ASSERT_EQ(run_cli("cache stats --cache-dir=" + quoted(cache) + " > " +
                    quoted(stats_path)),
            0);
  const std::string stats = read_file(stats_path);
  EXPECT_EQ(stats_field(stats, "hits") + stats_field(stats, "misses"),
            kRuns * one_run)
      << stats;
  EXPECT_EQ(stats_field(stats, "corrupt"), 0u) << stats;
}

TEST_F(CliExport, OutDirOnARegularFileExitsOneNamingTheDirectory) {
  const fs::path file = work_ / "not_a_directory";
  std::ofstream(file) << "occupied\n";
  const fs::path err = work_ / "stderr.txt";
  EXPECT_EQ(run_cli("campaign --points=3 --out-dir=" + quoted(file) +
                    " > /dev/null 2> " + quoted(err)),
            1);
  const std::string stderr_text = read_file(err);
  EXPECT_NE(stderr_text.find("cannot write to " + file.string()),
            std::string::npos)
      << stderr_text;
}

/// First line of a file, without its newline.
std::string first_line(const fs::path& path) {
  std::istringstream text(read_file(path));
  std::string line;
  std::getline(text, line);
  return line;
}

TEST_F(CliExport, KernelsOpensWithTheActiveTier) {
  const fs::path out = work_ / "kernels.txt";
  ASSERT_EQ(run_cli("kernels > " + quoted(out)), 0);
  const std::string line = first_line(out);
  EXPECT_TRUE(line == "active tier:     scalar" ||
              line == "active tier:     avx2")
      << line;
}

TEST_F(CliExport, ForceScalarPinsTheScalarTier) {
  const fs::path out = work_ / "kernels.txt";
  ASSERT_EQ(run_cli("kernels > " + quoted(out), "REXSPEED_FORCE_SCALAR=1"),
            0);
  EXPECT_EQ(first_line(out), "active tier:     scalar");
}

TEST_F(CliExport, BatchFlagIsAUsageError) {
  const fs::path err = work_ / "stderr.txt";
  EXPECT_EQ(run_cli("sweep --scenario=fig05 --batch=on > /dev/null 2> " +
                    quoted(err)),
            2);
  EXPECT_NE(read_file(err).find("unknown option '--batch'"),
            std::string::npos);
  EXPECT_EQ(run_cli("campaign --scenarios=fig05 --batch=on > /dev/null "
                    "2> /dev/null"),
            2);
}

TEST_F(CliExport, CacheStatsPrintsTheCanonicalRatio) {
  const fs::path cache = work_ / "cache";
  ASSERT_EQ(run_cli("campaign --scenarios=fig02,fig08 --points=101 "
                    "--cache-dir=" + quoted(cache) + " > /dev/null"),
            0);
  const fs::path out = work_ / "stats.txt";
  ASSERT_EQ(run_cli("cache stats --cache-dir=" + quoted(cache) + " > " +
                    quoted(out)),
            0);
  const std::string stats = read_file(out);
  EXPECT_NE(stats.find("failed puts: 0\n"), std::string::npos) << stats;
  const std::size_t ratio = stats.find("ratio:   ");
  ASSERT_NE(ratio, std::string::npos) << stats;
  // Columns of repeated flags and speed pairs shrink far below the rows.
  EXPECT_GT(std::stod(stats.substr(ratio + 9)), 2.0) << stats;
}

TEST_F(CliExport, FailedCacheWritesAreOneIncidentLine) {
  // Both compared runs export to `out` (stdout names the directory).
  const std::string campaign =
      "campaign --scenarios=fig02,exact_rho --points=7 --out-dir=";
  ASSERT_EQ(run_cli(campaign + quoted(work_ / "out") + " > " +
                    quoted(work_ / "plain.txt")),
            0);
  fs::rename(work_ / "out", work_ / "plain");
  // Fill a cache, then put a directory where every entry goes: the rerun
  // misses each one, recomputes it, and cannot store it.
  const fs::path cache = work_ / "cache";
  ASSERT_EQ(run_cli(campaign + quoted(work_ / "fill") + " --cache-dir=" +
                    quoted(cache) + " > /dev/null"),
            0);
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(cache / "entries")) {
    if (entry.path().extension() != ".bin") continue;
    fs::remove(entry.path());
    fs::create_directories(entry.path() / "occupied");
    ++entries;
  }
  ASSERT_GT(entries, 0u);

  const fs::path err = work_ / "stderr.txt";
  ASSERT_EQ(run_cli(campaign + quoted(work_ / "out") + " --cache-dir=" +
                    quoted(cache) + " > " + quoted(work_ / "blocked.txt") +
                    " 2> " + quoted(err)),
            0);
  EXPECT_EQ(read_file(work_ / "blocked.txt"), read_file(work_ / "plain.txt"));
  const std::string incident = read_file(err);
  EXPECT_EQ(incident.rfind("incident: cache: " + std::to_string(entries) +
                               " of " + std::to_string(entries) +
                               " entries not stored",
                           0),
            0u)
      << incident;
  EXPECT_EQ(std::count(incident.begin(), incident.end(), '\n'), 1) << incident;
  for (const auto& file : fs::recursive_directory_iterator(work_ / "plain")) {
    if (!file.is_regular_file()) continue;
    const fs::path relative = fs::relative(file.path(), work_ / "plain");
    EXPECT_EQ(read_file(work_ / "out" / relative), read_file(file.path()))
        << relative;
  }

  // A cache directory that cannot be opened stays a cache error.
  const fs::path not_a_directory = work_ / "plain.txt";
  for (const char* action : {"verify", "gc"}) {
    EXPECT_EQ(run_cli(std::string("cache ") + action + " --cache-dir=" +
                      quoted(not_a_directory) + " > /dev/null 2> /dev/null"),
              4)
        << action;
  }
}

/// `text` without its last line (a campaign's footer names its driver).
std::string without_footer(const std::string& text) {
  const std::size_t end = text.find_last_of('\n', text.size() - 2);
  return end == std::string::npos ? std::string() : text.substr(0, end + 1);
}

TEST_F(CliExport, FailedCacheWritesUnderWorkersAreIncidentsToo) {
  // The sharded campaign on the same blocked cache: each worker's failed
  // write is a failed task the coordinator recomputes, and the
  // coordinator's own writes fail as one incident, as in-process. Exit 0,
  // the in-process table and exports, and nothing on stderr but
  // incident lines.
  const std::string campaign =
      "campaign --scenarios=fig02,fig08 --points=5 --out-dir=";
  ASSERT_EQ(run_cli(campaign + quoted(work_ / "out") + " > " +
                    quoted(work_ / "plain.txt")),
            0);
  fs::rename(work_ / "out", work_ / "plain");
  const fs::path cache = work_ / "cache";
  ASSERT_EQ(run_cli(campaign + quoted(work_ / "fill") +
                    " --workers=2 --cache-dir=" + quoted(cache) +
                    " > /dev/null"),
            0);
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(cache / "entries")) {
    if (entry.path().extension() != ".bin") continue;
    fs::remove(entry.path());
    fs::create_directories(entry.path() / "occupied");
    ++entries;
  }
  ASSERT_GT(entries, 0u);

  const fs::path err = work_ / "stderr.txt";
  ASSERT_EQ(run_cli(campaign + quoted(work_ / "out") +
                    " --workers=2 --cache-dir=" + quoted(cache) + " > " +
                    quoted(work_ / "blocked.txt") + " 2> " + quoted(err)),
            0);
  EXPECT_EQ(without_footer(read_file(work_ / "blocked.txt")),
            without_footer(read_file(work_ / "plain.txt")));
  std::istringstream incidents(read_file(err));
  std::string line;
  bool stored_line = false;
  while (std::getline(incidents, line)) {
    EXPECT_EQ(line.rfind("incident: ", 0), 0u) << line;
    if (line.rfind("incident: cache: " + std::to_string(entries) + " of " +
                       std::to_string(entries) + " entries not stored",
                   0) == 0) {
      stored_line = true;
    }
  }
  EXPECT_TRUE(stored_line) << read_file(err);
  for (const auto& file : fs::recursive_directory_iterator(work_ / "plain")) {
    if (!file.is_regular_file()) continue;
    const fs::path relative = fs::relative(file.path(), work_ / "plain");
    EXPECT_EQ(read_file(work_ / "out" / relative), read_file(file.path()))
        << relative;
  }
}

TEST_F(CliExport, SweepReportsAFailedCacheWriteAsACacheError) {
  // A sweep runs one panel at a time and has no incident report, so a
  // cache write it cannot make fails the command, as a plain put does.
  const std::string sweep = "sweep --scenario=fig08 --points=5 --cache-dir=" +
                            quoted(work_ / "cache");
  ASSERT_EQ(run_cli(sweep + " > /dev/null"), 0);
  std::size_t entries = 0;
  for (const auto& entry :
       fs::directory_iterator(work_ / "cache" / "entries")) {
    if (entry.path().extension() != ".bin") continue;
    fs::remove(entry.path());
    fs::create_directories(entry.path() / "occupied");
    ++entries;
  }
  ASSERT_GT(entries, 0u);

  const fs::path err = work_ / "stderr.txt";
  EXPECT_EQ(run_cli(sweep + " > /dev/null 2> " + quoted(err)), 4);
  const std::string error = read_file(err);
  EXPECT_NE(error.find("cache error: entry not stored: "), std::string::npos)
      << error;
}

}  // namespace
}  // namespace rexspeed::io
