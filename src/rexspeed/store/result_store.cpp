#include "rexspeed/store/result_store.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <system_error>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
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

/// Closes its descriptor (releasing any flock on it) on scope exit.
struct FileDescriptor {
  int fd = -1;
  explicit FileDescriptor(int descriptor) : fd(descriptor) {}
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
};

/// Room for one blob of fetch_many: on the heap when small, in pages of
/// its own (an anonymous mapping, unmapped on destruction) when large.
/// fetch_many reads and decodes blobs on several threads at once, and
/// megabyte heap blobs freed between the decoded series left a blob-sized
/// hole in each thread's malloc arena, resident until the fetch ended:
/// +13 % peak RSS on a warm 10001-point campaign at 4 threads. Mapped
/// pages go back the moment a blob is decoded. A small blob stays on the
/// heap, where the mapping's syscalls would cost more than the blob: all
/// mapped, a warm 2-point campaign (1 KB blobs) took 15 % longer.
class BlobBuffer {
 public:
  /// Blobs from this size up get pages of their own.
  static constexpr std::size_t kMapFrom = std::size_t{256} << 10;

  BlobBuffer() = default;
  ~BlobBuffer() { unmap(); }
  BlobBuffer(const BlobBuffer&) = delete;
  BlobBuffer& operator=(const BlobBuffer&) = delete;

  /// Room for `size` bytes; growing discards the contents.
  void resize(std::size_t size) {
    if (size > capacity()) {
      unmap();
      if (size >= kMapFrom) {
        void* pages = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (pages == MAP_FAILED) throw std::bad_alloc();
        pages_ = static_cast<char*>(pages);
        mapped_ = size;
      } else {
        heap_.resize(size);
      }
    }
    size_ = size;
  }
  [[nodiscard]] char* data() noexcept {
    return pages_ != nullptr ? pages_ : heap_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  [[nodiscard]] std::size_t capacity() const noexcept {
    return pages_ != nullptr ? mapped_ : heap_.size();
  }
  void unmap() noexcept {
    if (pages_ != nullptr) ::munmap(pages_, mapped_);
    pages_ = nullptr;
    mapped_ = 0;
  }

  std::string heap_;
  char* pages_ = nullptr;
  std::size_t mapped_ = 0;
  std::size_t size_ = 0;
};

/// A regular file's bytes into `bytes` (a std::string or a BlobBuffer):
/// one open, one fstat, and read() into room for the size fstat reported
/// — so the bytes are never copied or regrown — retried after EINTR and
/// short reads. A file that shrank since the fstat yields what is left;
/// false when it cannot be opened or read.
template <class Bytes>
bool read_file(const fs::path& path, Bytes& bytes) {
  const FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.fd < 0) return false;
  struct stat status {};
  if (::fstat(file.fd, &status) != 0 || !S_ISREG(status.st_mode)) {
    return false;
  }
  bytes.resize(static_cast<std::size_t>(status.st_size));
  std::size_t filled = 0;
  while (filled < bytes.size()) {
    const ssize_t got =
        ::read(file.fd, bytes.data() + filled, bytes.size() - filled);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) break;
    filled += static_cast<std::size_t>(got);
  }
  bytes.resize(filled);
  return true;
}

std::optional<std::string> read_file(const fs::path& path) {
  std::string bytes;
  if (!read_file(path, bytes)) return std::nullopt;
  return bytes;
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

/// A sidecar's DataHash field for an entry checksum.
std::string data_hash_field(std::uint64_t checksum) {
  return "lane64:" + to_hex(checksum);
}

/// How one entry read ended.
enum class Lookup : std::uint8_t { kHit, kMiss, kCorrupt };

/// The read-and-verify of one entry that fetch, fetch_many and verify
/// share: reads the blob at `entry` into `blob` and checks it. The
/// envelope check validates magic, format version and the trailing
/// checksum; the sidecar at `info`, when present, ties the payload to its
/// recorded provenance by recording that same checksum, so both checks
/// cost one pass over the bytes. Any failure is a recompute, not an
/// error. Touches no store state, so fetch_many runs it on any thread.
template <class Bytes>
Lookup load_verified(const fs::path& entry, const fs::path& info,
                     Bytes& blob) {
  if (!read_file(entry, blob)) return Lookup::kMiss;
  const std::string_view bytes(blob.data(), blob.size());
  BlobEnvelope envelope;
  try {
    envelope = check_envelope(bytes);
  } catch (const SerializeError&) {
    return Lookup::kCorrupt;
  }
  if (const std::optional<std::string> sidecar = read_file(info)) {
    try {
      const std::string recorded = parse_entry_info(*sidecar).data_hash;
      if (!recorded.empty() &&
          recorded != data_hash_field(envelope.checksum)) {
        return Lookup::kCorrupt;
      }
    } catch (const StoreError&) {
      return Lookup::kCorrupt;
    }
  }
  return Lookup::kHit;
}

void count(StoreStats& stats, Lookup lookup) noexcept {
  switch (lookup) {
    case Lookup::kHit:
      ++stats.hits;
      break;
    case Lookup::kMiss:
      ++stats.misses;
      break;
    case Lookup::kCorrupt:
      ++stats.corrupt;
      break;
  }
}

constexpr std::size_t kCounters = 5;
constexpr const char* kStatsFields[kCounters] = {"Hits", "Misses", "Stores",
                                                 "Corrupt", "PutFailures"};

/// The persisted counters, in kStatsFields order.
std::array<std::uint64_t, kCounters> load_counters(const fs::path& path) {
  std::array<std::uint64_t, kCounters> counters{};
  const std::optional<std::string> text = read_file(path);
  if (!text) return counters;
  std::istringstream lines(*text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    const std::string field = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    for (std::size_t i = 0; i < kCounters; ++i) {
      if (field == kStatsFields[i]) {
        counters[i] = std::strtoull(value.c_str(), nullptr, 10);
      }
    }
  }
  return counters;
}

/// Where one put_many entry ended up; empty strings mean it went through.
struct PutOutcome {
  std::string entry_error;
  std::string cost_error;
};

/// The per-entry body of every put_many: encode, `write` the blob, then
/// record the entry's cost. Each entry's outcome lands in its own slot
/// (pool tasks must not throw), so `parallel` may run them on any thread
/// when `write` and the store's record_cost allow it. A cost that cannot
/// be recorded leaves the entry stored.
PutFailures put_entries(
    ResultStore& store, const std::vector<PutEntry>& entries,
    const ParallelFor& parallel,
    const std::function<void(const PutEntry&, std::string_view)>& write) {
  std::vector<PutOutcome> outcomes(entries.size());
  const auto put_one = [&](std::size_t i) {
    const PutEntry& entry = entries[i];
    try {
      write(entry, entry.encode());
    } catch (const std::exception& error) {
      outcomes[i].entry_error = entry.key + ": " + error.what();
      return;
    }
    if (entry.cost_key.empty()) return;
    try {
      store.record_cost(entry.cost_key, entry.info.cost_seconds_per_point);
    } catch (const std::exception& error) {
      outcomes[i].cost_error = entry.cost_key + ": " + error.what();
    }
  };
  if (parallel) {
    parallel(entries.size(), put_one);
  } else {
    for (std::size_t i = 0; i < entries.size(); ++i) put_one(i);
  }
  PutFailures failures;
  for (PutOutcome& outcome : outcomes) {
    if (!outcome.entry_error.empty()) {
      failures.entries.push_back(std::move(outcome.entry_error));
    }
    if (!outcome.cost_error.empty()) {
      failures.costs.push_back(std::move(outcome.cost_error));
    }
  }
  return failures;
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
      << "FileSize: " << info.data_size << '\n'
      << "CanonicalSize: " << info.canonical_size << '\n'
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
    } else if (field == "FileSize") {
      info.data_size = std::strtoull(value.c_str(), nullptr, 10);
    } else if (field == "CanonicalSize") {
      info.canonical_size = std::strtoull(value.c_str(), nullptr, 10);
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
  std::string blob;
  const Lookup lookup = load_verified(entry_path(key), info_path(key), blob);
  count(session_, lookup);
  if (lookup != Lookup::kHit) return std::nullopt;
  return blob;
}

void LocalResultStore::fetch_many(const std::vector<std::string>& keys,
                                  const ParallelFor& parallel,
                                  const BlobSink& sink) {
  for (const std::string& key : keys) require_key(key);
  std::vector<Lookup> lookups(keys.size(), Lookup::kMiss);
  const auto load = [&](std::size_t i) {
    BlobBuffer blob;
    lookups[i] = load_verified(entry_path(keys[i]), info_path(keys[i]), blob);
    if (lookups[i] == Lookup::kHit) {
      sink(i, std::string_view(blob.data(), blob.size()));
    }
  };
  if (parallel) {
    parallel(keys.size(), load);
  } else {
    for (std::size_t i = 0; i < keys.size(); ++i) load(i);
  }
  for (const Lookup lookup : lookups) count(session_, lookup);
}

void LocalResultStore::write_entry(const std::string& key,
                                   std::string_view blob,
                                   EntryInfo info) const {
  require_key(key);
  info.key = key;
  info.data_size = blob.size();
  info.data_hash = data_hash_field(stored_checksum(blob));
  write_file_atomic(entry_path(key), blob);
  write_file_atomic(info_path(key), format_entry_info(info));
}

void LocalResultStore::put(const std::string& key, std::string_view blob,
                           EntryInfo info) {
  write_entry(key, blob, std::move(info));
  ++session_.stores;
}

PutFailures LocalResultStore::put_many(const std::vector<PutEntry>& entries,
                                      const ParallelFor& parallel) {
  // write_entry touches no counter, so it runs on the pool; the counters
  // move here, on this thread.
  PutFailures failures = put_entries(
      *this, entries, parallel,
      [this](const PutEntry& entry, std::string_view blob) {
        write_entry(entry.key, blob, entry.info);
      });
  session_.stores += entries.size() - failures.entries.size();
  session_.put_failures += failures.entries.size();
  return failures;
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
  const std::array<std::uint64_t, kCounters> persisted =
      load_counters(root_ / "stats");
  StoreStats out;
  out.hits = persisted[0] + session_.hits;
  out.misses = persisted[1] + session_.misses;
  out.stores = persisted[2] + session_.stores;
  out.corrupt = persisted[3] + session_.corrupt;
  out.put_failures = persisted[4] + session_.put_failures;
  std::error_code ec;
  for (const auto& file : fs::directory_iterator(root_ / "entries", ec)) {
    if (file.path().extension() == ".bin") {
      ++out.entries;
      out.bytes += fs::file_size(file.path(), ec);
    } else if (file.path().extension() == ".info") {
      const std::optional<std::string> text = read_file(file.path());
      if (!text) continue;
      try {
        const EntryInfo sidecar = parse_entry_info(*text);
        if (sidecar.canonical_size > 0 && sidecar.data_size > 0) {
          out.sized_bytes += sidecar.data_size;
          out.canonical_bytes += sidecar.canonical_size;
        }
      } catch (const StoreError&) {
        // verify() reports an unparsable sidecar; stats just skips it.
      }
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
      // Exactly fetch's checks: an entry verify passes is a hit.
      BlobBuffer blob;
      if (load_verified(path, info_path(stem), blob) != Lookup::kHit) {
        bad.push_back(stem);
      }
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
      session_.corrupt == 0 && session_.put_failures == 0) {
    return;
  }
  // The merge is a read-modify-write of one shared file, so processes
  // sharing the directory take turns under an exclusive flock on a lock
  // file beside it; without it, two flushes that load the same counters
  // lose one's increments. The lock is released when `lock` closes.
  const fs::path lock_path = root_ / "stats.lock";
  const FileDescriptor lock(
      ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644));
  if (lock.fd < 0) {
    throw StoreError("store: cannot open " + lock_path.string());
  }
  while (::flock(lock.fd, LOCK_EX) != 0) {
    if (errno != EINTR) {
      throw StoreError("store: cannot lock " + lock_path.string());
    }
  }
  std::array<std::uint64_t, kCounters> counters =
      load_counters(root_ / "stats");
  counters[0] += session_.hits;
  counters[1] += session_.misses;
  counters[2] += session_.stores;
  counters[3] += session_.corrupt;
  counters[4] += session_.put_failures;
  std::ostringstream out;
  for (std::size_t i = 0; i < kCounters; ++i) {
    out << kStatsFields[i] << ": " << counters[i] << '\n';
  }
  write_file_atomic(root_ / "stats", out.str());
  session_ = StoreStats{};
}

// ---- ResultStore ---------------------------------------------------------

void ResultStore::fetch_many(const std::vector<std::string>& keys,
                             const ParallelFor& /*parallel*/,
                             const BlobSink& sink) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (const std::optional<std::string> blob = fetch(keys[i])) {
      sink(i, *blob);
    }
  }
}

PutFailures ResultStore::put_many(const std::vector<PutEntry>& entries,
                                 const ParallelFor& /*parallel*/) {
  return put_entries(*this, entries, {},
                     [this](const PutEntry& entry, std::string_view blob) {
                       put(entry.key, blob, entry.info);
                     });
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
