#pragma once

// The one BENCH_*.json report every perf-trajectory bench writes, and
// where it lands (the repository root, stamped with the commit measured).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace rexspeed::bench {

/// The repository root, found by walking up from the working directory
/// until a .git + ROADMAP.md pair appears. Benches run from build/ (or
/// anywhere below the checkout), and their BENCH_*.json artifacts must
/// all land in ONE place for CI's upload glob — the root. Falls back to
/// the working directory outside a checkout.
inline std::filesystem::path repo_root() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (ec) return {};
  while (true) {
    if (fs::exists(dir / ".git", ec) && fs::exists(dir / "ROADMAP.md", ec)) {
      return dir;
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir || parent.empty()) break;
    dir = parent;
  }
  return fs::current_path(ec);
}

/// HEAD's commit sha, read straight from .git (no subprocess): a symbolic
/// HEAD resolves through its ref file, then packed-refs; a detached HEAD
/// is the sha itself. "unknown" when nothing resolves.
inline std::string git_sha(const std::filesystem::path& root) {
  std::ifstream head(root / ".git" / "HEAD");
  std::string line;
  if (!std::getline(head, line) || line.empty()) return "unknown";
  if (line.rfind("ref: ", 0) != 0) return line;
  const std::string ref = line.substr(5);
  std::ifstream ref_file(root / ".git" / ref);
  std::string sha;
  if (std::getline(ref_file, sha) && !sha.empty()) return sha;
  std::ifstream packed(root / ".git" / "packed-refs");
  while (std::getline(packed, line)) {
    // "<sha> <refname>" entries; '#' comments and '^' peel lines skipped.
    if (line.empty() || line[0] == '#' || line[0] == '^') continue;
    const std::size_t space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref) {
      return line.substr(0, space);
    }
  }
  return "unknown";
}

/// The one BENCH_*.json schema every bench emits (ISSUE: the perf
/// trajectory was unreadable as a whole because each bench invented its
/// own ad-hoc layout and wrote it wherever it was run from):
///
///   { "schema": 1, "bench": ..., "config": ..., "git_sha": ...,
///     "metrics": { name: number-or-string, ... } }
///
/// Metrics keep insertion order. write() resolves a bare file name to the
/// repository root so artifacts collect in one place however the bench
/// was invoked; an explicit directory in the path is honored as given.
class BenchReport {
 public:
  BenchReport(std::string bench, std::string config)
      : bench_(std::move(bench)), config_(std::move(config)) {}

  BenchReport& metric(const std::string& name, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    metrics_.emplace_back(name, buffer);
    return *this;
  }
  BenchReport& metric(const std::string& name, std::size_t value) {
    metrics_.emplace_back(name, std::to_string(value));
    return *this;
  }
  BenchReport& metric(const std::string& name, unsigned value) {
    metrics_.emplace_back(name, std::to_string(value));
    return *this;
  }
  BenchReport& metric(const std::string& name, bool value) {
    metrics_.emplace_back(name, value ? "true" : "false");
    return *this;
  }
  BenchReport& metric(const std::string& name, const std::string& value) {
    metrics_.emplace_back(name, quoted(value));
    return *this;
  }

  /// Serializes the report; bare file names land in the repo root.
  /// Returns false (with a diagnostic) when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const {
    namespace fs = std::filesystem;
    fs::path target(path);
    if (!target.has_parent_path()) target = repo_root() / target;
    std::ofstream out(target);
    out << "{\n"
        << "  \"schema\": 1,\n"
        << "  \"bench\": " << quoted(bench_) << ",\n"
        << "  \"config\": " << quoted(config_) << ",\n"
        << "  \"git_sha\": " << quoted(git_sha(repo_root())) << ",\n"
        << "  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << "    " << quoted(metrics_[i].first) << ": "
          << metrics_[i].second << (i + 1 < metrics_.size() ? "," : "")
          << "\n";
    }
    out << "  }\n}\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   target.string().c_str());
      return false;
    }
    std::printf("wrote %s\n", target.string().c_str());
    return true;
  }

 private:
  static std::string quoted(const std::string& text) {
    std::string escaped = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    return escaped + "\"";
  }

  std::string bench_;
  std::string config_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

}  // namespace rexspeed::bench
