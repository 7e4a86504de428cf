#include "rexspeed/engine/scenario_file.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace rexspeed::engine {

namespace {

std::string format_double(double value) {
  // %.17g round-trips every finite double through std::stod.
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

const char* param_token(const ScenarioSpec& spec) {
  if (spec.all_panels) return "all";
  if (spec.sweep_parameter) return sweep::to_string(*spec.sweep_parameter);
  return "none";
}

bool has_whitespace(const std::string& text) {
  return text.find_first_of(" \t\r\n") != std::string::npos;
}

/// The file format has no escaping: '#' starts a comment when read back
/// and a newline ends the entry, so a value containing either cannot
/// survive a round trip.
bool representable(const std::string& text) {
  return text.find_first_of("#\n\r") == std::string::npos;
}

std::string trim(const std::string& text) {
  const std::size_t first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const std::size_t last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

}  // namespace

std::string write_scenario(const ScenarioSpec& spec) {
  // Identifiers that a reload (or a parse_scenario round trip) would
  // truncate or split must be rejected, not corrupted: '#' starts a
  // comment, newlines end the entry, whitespace splits tokens.
  if (!representable(spec.name) || has_whitespace(spec.name) ||
      !representable(spec.configuration) ||
      has_whitespace(spec.configuration)) {
    throw std::invalid_argument(
        "write_scenario: scenario '" + spec.name +
        "': name/config must not contain whitespace or '#'");
  }
  std::ostringstream out;
  if (!spec.name.empty()) out << "name=" << spec.name << '\n';
  if (!spec.description.empty() && !has_whitespace(spec.description) &&
      representable(spec.description)) {
    out << "description=" << spec.description << '\n';
  }
  out << "config=" << spec.configuration << '\n';
  out << "rho=" << format_double(spec.rho) << '\n';
  out << "points=" << spec.points << '\n';
  out << "param=" << param_token(spec) << '\n';
  out << "policy="
      << (spec.policy == core::SpeedPolicy::kSingleSpeed ? "single-speed"
                                                         : "two-speed")
      << '\n';
  const char* mode = "first-order";
  if (spec.mode == core::EvalMode::kExactEvaluation) mode = "exact-eval";
  if (spec.mode == core::EvalMode::kExactOptimize) mode = "exact-opt";
  // mode=recall forces mode back to kFirstOrder on parse, so emitting the
  // recall name loses nothing and round-trips the flag.
  if (spec.recall_mode) mode = "recall";
  out << "mode=" << mode << '\n';
  out << "fallback=" << (spec.min_rho_fallback ? 1 : 0) << '\n';
  // Interleaved keys only when set: the default (no interleaved mode) has
  // no line, so pre-existing files and their byte-exact fixtures are
  // untouched.
  if (spec.segments > 0) out << "segments=" << spec.segments << '\n';
  if (spec.max_segments > 0) {
    out << "max_segments=" << spec.max_segments << '\n';
  }
  // Cache opt-out only when set: the default (cached) has no line.
  if (!spec.cache) out << "cache=0\n";
  // Likewise simulate-only dimensions: the default (guaranteed
  // verifications) emits no line.
  if (spec.verification_recall != 1.0) {
    out << "verification_recall=" << format_double(spec.verification_recall)
        << '\n';
  }
  for (const ParamOverride& override_ : spec.overrides) {
    out << override_.key << '=' << format_double(override_.value) << '\n';
  }
  return out.str();
}

void save_scenario_file(const ScenarioSpec& spec, const std::string& path) {
  std::ofstream out(path);
  out << "# rexspeed scenario spec (key=value per line, '#' comments)\n";
  // Multi-word descriptions are dropped by write_scenario (its output must
  // stay parse_scenario-compatible); the line-based file format keeps them
  // — unless they contain '#', which a reload would truncate as a comment.
  if (!spec.description.empty() && has_whitespace(spec.description) &&
      representable(spec.description)) {
    out << "description=" << spec.description << '\n';
  }
  out << write_scenario(spec);
  if (!out) {
    throw std::runtime_error("save_scenario_file: cannot write '" + path +
                             "'");
  }
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("load_scenario_file: cannot open '" + path +
                                "'");
  }
  ScenarioSpec spec;
  spec.name = std::filesystem::path(path).stem().string();

  std::string line;
  std::size_t line_number = 0;
  std::size_t entries = 0;
  /// key → line it first appeared on. A repeated key would silently keep
  /// only the later value (apply_token overwrites; override keys would
  /// even apply twice), so it is rejected with both lines cited.
  std::unordered_map<std::string, std::size_t> seen;
  while (std::getline(in, line)) {
    ++line_number;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || trim(line.substr(0, eq)).empty()) {
      throw std::invalid_argument(path + ":" + std::to_string(line_number) +
                                  ": expected key=value, got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const auto [it, inserted] = seen.emplace(key, line_number);
    if (!inserted) {
      throw std::invalid_argument(
          path + ":" + std::to_string(line_number) + ": duplicate key '" +
          key + "' (first set on line " + std::to_string(it->second) + ")");
    }
    try {
      apply_token(spec, key, trim(line.substr(eq + 1)));
    } catch (const std::exception& error) {
      throw std::invalid_argument(path + ":" + std::to_string(line_number) +
                                  ": " + error.what());
    }
    ++entries;
  }
  if (entries == 0) {
    throw std::invalid_argument(path + ": empty (no key=value entries)");
  }
  try {
    spec.validate();  // cross-field checks have no single line to cite
  } catch (const std::exception& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
  return spec;
}

std::vector<ScenarioSpec> load_scenario_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw std::invalid_argument("load_scenario_dir: '" + dir +
                                "' is not a directory");
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scenario") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<ScenarioSpec> specs;
  specs.reserve(files.size());
  std::unordered_map<std::string, std::string> name_to_file;
  for (const fs::path& file : files) {
    ScenarioSpec spec = load_scenario_file(file.string());
    const auto [it, inserted] =
        name_to_file.emplace(spec.name, file.string());
    if (!inserted) {
      throw std::invalid_argument(
          "load_scenario_dir: duplicate scenario name '" + spec.name +
          "' (" + it->second + " and " + file.string() + ")");
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<ScenarioSpec> merge_with_registry(
    const std::vector<ScenarioSpec>& extras) {
  std::vector<ScenarioSpec> merged = scenario_registry();
  for (const ScenarioSpec& extra : extras) {
    const auto it =
        std::find_if(merged.begin(), merged.end(), [&](const auto& spec) {
          return spec.name == extra.name;
        });
    if (it != merged.end()) {
      *it = extra;
    } else {
      merged.push_back(extra);
    }
  }
  return merged;
}

}  // namespace rexspeed::engine
