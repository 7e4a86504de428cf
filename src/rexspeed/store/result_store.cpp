#include "rexspeed/store/result_store.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

#include <signal.h>
#include <unistd.h>

#include "rexspeed/store/hash.hpp"
#include "rexspeed/store/serialize.hpp"

namespace rexspeed::store {

namespace fs = std::filesystem;

namespace {

bool is_hex_key(const std::string& key) {
  if (key.empty() || key.size() > 128) return false;
  for (const char c : key) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

void require_key(const std::string& key) {
  if (!is_hex_key(key)) {
    throw StoreError("store: malformed key '" + key +
                     "' (keys are lower-case hex)");
  }
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buffer).str();
}

/// Atomic write: temp file in the same directory + rename, so readers
/// never observe a half-written entry and a killed run leaves at most a
/// stray .tmp for gc() to sweep. The temp name is unique per write (pid +
/// a per-process counter): processes sharing a cache directory write the
/// same files, and a shared temp name lets one writer rename another's
/// temp away under it.
void write_file_atomic(const fs::path& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> writes{0};
  const fs::path tmp = path.string() + "." + std::to_string(::getpid()) +
                       "." + std::to_string(writes.fetch_add(1)) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw StoreError("store: cannot write " + tmp.string());
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      throw StoreError("store: short write to " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);  // unique names would otherwise pile up
    throw StoreError("store: cannot rename " + tmp.string() + " -> " +
                     path.string() + ": " + ec.message());
  }
}

/// True when `name` is a write_file_atomic temp (`<file>.<pid>.<n>.tmp`)
/// whose writer process is still alive: its rename may yet land, so
/// verify() does not report it and gc() does not remove it. kill(pid, 0)
/// sends nothing; EPERM means the process exists under another user.
bool is_in_flight_temp(const std::string& name) {
  const std::size_t counter_dot = name.rfind('.', name.size() - 5);
  if (counter_dot == std::string::npos || counter_dot == 0) return false;
  const std::size_t pid_dot = name.rfind('.', counter_dot - 1);
  if (pid_dot == std::string::npos) return false;
  const char* first = name.data() + pid_dot + 1;
  const char* last = name.data() + counter_dot;
  pid_t pid = 0;
  const auto [end, error] = std::from_chars(first, last, pid);
  if (error != std::errc() || end != last || pid <= 0) return false;
  return ::kill(pid, 0) == 0 || errno == EPERM;
}

std::string format_double_field(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string payload_hash(std::string_view blob) {
  return "fnv1a64:" + to_hex(fnv1a64(blob.data(), blob.size()));
}

constexpr const char* kStatsFields[4] = {"Hits", "Misses", "Stores",
                                         "Corrupt"};

/// The persisted counter quartet, in kStatsFields order.
std::array<std::uint64_t, 4> load_counters(const fs::path& path) {
  std::array<std::uint64_t, 4> counters{};
  const std::optional<std::string> text = read_file(path);
  if (!text) return counters;
  std::istringstream lines(*text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    const std::string field = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    for (std::size_t i = 0; i < 4; ++i) {
      if (field == kStatsFields[i]) {
        counters[i] = std::strtoull(value.c_str(), nullptr, 10);
      }
    }
  }
  return counters;
}

}  // namespace

// ---- sidecar format ------------------------------------------------------

std::string format_entry_info(const EntryInfo& info) {
  std::ostringstream out;
  out << "Key: " << info.key << '\n'
      << "Kind: " << info.kind << '\n'
      << "Scenario: " << info.scenario << '\n'
      << "Configuration: " << info.configuration << '\n'
      << "Backend: " << info.backend << '\n'
      << "BackendVersion: " << info.backend_version << '\n'
      << "Axis: " << info.axis << '\n'
      << "Points: " << info.points << '\n'
      << "DataSize: " << info.data_size << '\n'
      << "DataHash: " << info.data_hash << '\n'
      << "CostPerPoint: " << format_double_field(info.cost_seconds_per_point)
      << '\n';
  return std::move(out).str();
}

EntryInfo parse_entry_info(const std::string& text) {
  EntryInfo info;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    const std::string field = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    if (field == "Key") {
      info.key = value;
    } else if (field == "Kind") {
      info.kind = value;
    } else if (field == "Scenario") {
      info.scenario = value;
    } else if (field == "Configuration") {
      info.configuration = value;
    } else if (field == "Backend") {
      info.backend = value;
    } else if (field == "BackendVersion") {
      info.backend_version = value;
    } else if (field == "Axis") {
      info.axis = value;
    } else if (field == "Points") {
      info.points = std::strtoull(value.c_str(), nullptr, 10);
    } else if (field == "DataSize") {
      info.data_size = std::strtoull(value.c_str(), nullptr, 10);
    } else if (field == "DataHash") {
      info.data_hash = value;
    } else if (field == "CostPerPoint") {
      info.cost_seconds_per_point = std::strtod(value.c_str(), nullptr);
    }
    // Unknown fields are skipped: older binaries read newer sidecars.
  }
  if (!is_hex_key(info.key)) {
    throw StoreError("store: sidecar without a usable Key line");
  }
  return info;
}

// ---- LocalResultStore ----------------------------------------------------

LocalResultStore::LocalResultStore(fs::path root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_ / "entries", ec);
  if (!ec) fs::create_directories(root_ / "costs", ec);
  if (ec) {
    throw StoreError("store: cannot create cache directory " +
                     root_.string() + ": " + ec.message());
  }
}

LocalResultStore::~LocalResultStore() {
  try {
    flush();
  } catch (...) {
    // Destructors must not throw; losing a stats merge is harmless.
  }
}

fs::path LocalResultStore::entry_path(const std::string& key) const {
  return root_ / "entries" / (key + ".bin");
}

fs::path LocalResultStore::info_path(const std::string& key) const {
  return root_ / "entries" / (key + ".info");
}

std::optional<std::string> LocalResultStore::fetch(const std::string& key) {
  require_key(key);
  std::optional<std::string> blob = read_file(entry_path(key));
  if (!blob) {
    ++session_.misses;
    return std::nullopt;
  }
  // Verify-on-fetch: the envelope check validates magic, format version
  // and the trailing checksum; the sidecar hash (when present) ties the
  // payload to its recorded provenance. Any failure is a recompute, not
  // an error.
  try {
    (void)payload_kind(*blob);
  } catch (const SerializeError&) {
    ++session_.corrupt;
    return std::nullopt;
  }
  if (const std::optional<std::string> sidecar = read_file(info_path(key))) {
    try {
      const EntryInfo info = parse_entry_info(*sidecar);
      if (!info.data_hash.empty() && info.data_hash != payload_hash(*blob)) {
        ++session_.corrupt;
        return std::nullopt;
      }
    } catch (const StoreError&) {
      ++session_.corrupt;
      return std::nullopt;
    }
  }
  ++session_.hits;
  return blob;
}

void LocalResultStore::put(const std::string& key, std::string_view blob,
                           EntryInfo info) {
  require_key(key);
  info.key = key;
  info.data_size = blob.size();
  info.data_hash = payload_hash(blob);
  write_file_atomic(entry_path(key), blob);
  write_file_atomic(info_path(key), format_entry_info(info));
  ++session_.stores;
}

std::optional<EntryInfo> LocalResultStore::info(const std::string& key) {
  require_key(key);
  const std::optional<std::string> sidecar = read_file(info_path(key));
  if (!sidecar) return std::nullopt;
  try {
    return parse_entry_info(*sidecar);
  } catch (const StoreError&) {
    return std::nullopt;
  }
}

std::optional<double> LocalResultStore::lookup_cost(
    const std::string& cost_key) {
  require_key(cost_key);
  const std::optional<std::string> text =
      read_file(root_ / "costs" / (cost_key + ".cost"));
  if (!text) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text->c_str(), &end);
  if (end == text->c_str() || !(value > 0.0)) return std::nullopt;
  return value;
}

void LocalResultStore::record_cost(const std::string& cost_key,
                                   double seconds_per_point) {
  require_key(cost_key);
  if (!(seconds_per_point > 0.0)) return;
  write_file_atomic(root_ / "costs" / (cost_key + ".cost"),
                    format_double_field(seconds_per_point) + "\n");
}

StoreStats LocalResultStore::stats() {
  const std::array<std::uint64_t, 4> persisted =
      load_counters(root_ / "stats");
  StoreStats out;
  out.hits = persisted[0] + session_.hits;
  out.misses = persisted[1] + session_.misses;
  out.stores = persisted[2] + session_.stores;
  out.corrupt = persisted[3] + session_.corrupt;
  std::error_code ec;
  for (const auto& file : fs::directory_iterator(root_ / "entries", ec)) {
    if (file.path().extension() == ".bin") {
      ++out.entries;
      out.bytes += fs::file_size(file.path(), ec);
    }
  }
  return out;
}

std::vector<std::string> LocalResultStore::verify() {
  std::vector<std::string> bad;
  std::error_code ec;
  for (const auto& file : fs::directory_iterator(root_ / "entries", ec)) {
    const fs::path& path = file.path();
    const std::string stem = path.stem().string();
    if (path.extension() == ".bin") {
      const std::optional<std::string> blob = read_file(path);
      bool ok = blob.has_value();
      if (ok) {
        try {
          (void)payload_kind(*blob);
        } catch (const SerializeError&) {
          ok = false;
        }
      }
      if (ok) {
        if (const std::optional<std::string> sidecar =
                read_file(info_path(stem))) {
          try {
            const EntryInfo entry = parse_entry_info(*sidecar);
            ok = entry.data_hash.empty() ||
                 entry.data_hash == payload_hash(*blob);
          } catch (const StoreError&) {
            ok = false;
          }
        }
      }
      if (!ok) bad.push_back(stem);
    } else if (path.extension() == ".info") {
      // A sidecar whose payload vanished is unusable provenance.
      if (!fs::exists(entry_path(stem))) bad.push_back(stem);
    } else if (path.extension() == ".tmp" &&
               !is_in_flight_temp(path.filename().string())) {
      // Leftover from a killed write; never referenced by key.
      bad.push_back(path.filename().string());
    }
  }
  std::sort(bad.begin(), bad.end());
  bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
  return bad;
}

std::size_t LocalResultStore::gc() {
  std::size_t removed = 0;
  for (const std::string& flagged : verify()) {
    std::error_code ec;
    if (flagged.size() > 4 &&
        flagged.compare(flagged.size() - 4, 4, ".tmp") == 0) {
      removed += fs::remove(root_ / "entries" / flagged, ec) ? 1 : 0;
      continue;
    }
    const bool had_entry = fs::remove(entry_path(flagged), ec);
    const bool had_info = fs::remove(info_path(flagged), ec);
    removed += (had_entry || had_info) ? 1 : 0;
  }
  return removed;
}

void LocalResultStore::flush() {
  if (session_.hits == 0 && session_.misses == 0 && session_.stores == 0 &&
      session_.corrupt == 0) {
    return;
  }
  std::array<std::uint64_t, 4> counters = load_counters(root_ / "stats");
  counters[0] += session_.hits;
  counters[1] += session_.misses;
  counters[2] += session_.stores;
  counters[3] += session_.corrupt;
  std::ostringstream out;
  for (std::size_t i = 0; i < 4; ++i) {
    out << kStatsFields[i] << ": " << counters[i] << '\n';
  }
  write_file_atomic(root_ / "stats", out.str());
  session_ = StoreStats{};
}

// ---- factory -------------------------------------------------------------

std::unique_ptr<ResultStore> make_store(const std::string& spec) {
  if (spec.empty() || spec == "none" || spec == "null") {
    return std::make_unique<NullResultStore>();
  }
  if (spec.rfind("http://", 0) == 0 || spec.rfind("https://", 0) == 0 ||
      spec.rfind("s3://", 0) == 0) {
    throw StoreError("store: remote cache '" + spec +
                     "' is not supported — use a local --cache-dir");
  }
  std::string path = spec;
  if (path.rfind("file://", 0) == 0) {
    path = path.substr(7);
    if (path.empty()) {
      throw StoreError("store: empty file:// cache path");
    }
  }
  return std::make_unique<LocalResultStore>(fs::path(path));
}

}  // namespace rexspeed::store
