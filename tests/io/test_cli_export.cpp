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

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

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

TEST_F(CliExport, RegistryCampaignMatchesThePinnedManifest) {
  const fs::path out = work_ / "out";
  ASSERT_EQ(run_cli("campaign --points=7 --out-dir=" + quoted(out) + " > " +
                    quoted(work_ / "stdout.txt")),
            0);

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

}  // namespace
}  // namespace rexspeed::io
