#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rexspeed::store {

/// Thrown on store-level failures the caller must hear about: an
/// unwritable cache directory, a malformed or remote store spec.
/// Entry-level corruption is NOT a StoreError — fetch() reports it
/// as a miss (counted in StoreStats::corrupt) so solvers transparently
/// recompute.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The narinfo-style sidecar persisted next to every entry: key
/// provenance (what produced the bytes, human-readable) plus the measured
/// panel cost. `rexspeed cache stats` aggregates these; the campaign
/// scheduler seeds its longest-first ordering from the cost table (see
/// record_cost — the sidecar carries the figure for provenance, the
/// coarser-keyed cost table serves lookups, which by construction happen
/// on entries that do not exist yet).
struct EntryInfo {
  std::string key;             ///< the entry's content-address (hex)
  std::string kind;            ///< "panel" | "solution"
  std::string scenario;        ///< producing scenario name ("" = ad hoc)
  std::string configuration;   ///< "Platform/Processor" label
  std::string backend;         ///< backend mode name
  std::string backend_version; ///< capabilities().version at store time
  std::string axis;            ///< swept axis name ("-" for solutions)
  std::uint64_t points = 0;    ///< grid points (1 for solutions)
  /// Entry bytes on disk ("FileSize", as in a Nix narinfo).
  std::uint64_t data_size = 0;
  /// Bytes of the value's canonical blob (serialize.hpp's
  /// canonical_size; narinfo's NarSize to data_size's FileSize), set by
  /// the caller; 0 = unknown.
  std::uint64_t canonical_size = 0;
  /// "lane64:<16 hex>": the entry's checksum, as its trailer records it.
  std::string data_hash;
  double cost_seconds_per_point = 0.0;  ///< measured (0 = not measured)
};

/// Session + on-disk counters. hits/misses/stores/corrupt/put_failures
/// accumulate across every process that touched the store (the local
/// tier persists them on flush); the rest is the current on-disk
/// footprint.
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t put_failures = 0;  ///< entries put_many could not store
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  /// Over the entries whose sidecar records both sizes: their encoded
  /// and canonical bytes (`rexspeed cache stats` prints the ratio).
  std::uint64_t sized_bytes = 0;
  std::uint64_t canonical_bytes = 0;
};

/// Parallelizer hook of fetch_many: call fn(i) for every i in [0, count),
/// in any order, and return once all completed; empty means serial. The
/// same type as core::ParallelFor (sweep::make_parallel_build adapts a
/// pool).
using ParallelFor = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& fn)>;

/// One entry of a put_many call.
struct PutEntry {
  std::string key;
  /// Provenance, canonical size and measured cost; the store fills in
  /// key, data_size and data_hash.
  EntryInfo info;
  /// Produces the entry's blob (serialize.hpp's encode_*_entry); called
  /// once, on any thread of the put_many hook.
  std::function<std::string()> encode;
  /// When non-empty, info.cost_seconds_per_point (if positive) is also
  /// recorded under this cost key.
  std::string cost_key;
};

/// What a put_many call could not do, one "<key>: <error>" message per
/// failure.
struct PutFailures {
  /// Entries left unstored: their encode or write threw.
  std::vector<std::string> entries;
  /// Stored entries whose cost record threw, under their cost key: the
  /// entry is a hit next run, only the scheduling hint is lost.
  std::vector<std::string> costs;

  [[nodiscard]] bool empty() const noexcept {
    return entries.empty() && costs.empty();
  }
};

/// Receives one verified blob of a fetch_many call: the index of its key
/// and the bytes, valid until it returns (the blob is freed then).
using BlobSink =
    std::function<void(std::size_t index, std::string_view blob)>;

/// One result-cache tier. Keys are content addresses (store_key.hpp);
/// values are serialized blobs (serialize.hpp). Implementations verify on
/// fetch: a returned blob has already passed the checksum, and anything
/// that fails it is reported as a miss with the corrupt counter bumped —
/// the caller's only obligation is to recompute (and re-put, which heals
/// the entry).
class ResultStore {
 public:
  virtual ~ResultStore() = default;

  [[nodiscard]] virtual const char* tier_name() const noexcept = 0;

  /// Verified blob bytes, or nullopt on miss/corruption.
  [[nodiscard]] virtual std::optional<std::string> fetch(
      const std::string& key) = 0;

  /// fetch() over many keys: every verified blob goes to `sink` with the
  /// index of its key, and the counters move exactly as that many fetch()
  /// calls would move them. This default calls fetch() for each key in
  /// order and `sink` after it, all on the calling thread, and ignores
  /// `parallel`. A tier may override it to do the per-entry work across
  /// `parallel`; it may then call `sink` from the hook's threads, at most
  /// once per index, but still updates its counters on the calling thread.
  virtual void fetch_many(const std::vector<std::string>& keys,
                          const ParallelFor& parallel, const BlobSink& sink);

  /// Persists a blob + its sidecar (overwrites — healing a corrupt entry
  /// is a plain re-put). info.key/data_size/data_hash are filled in by
  /// the store; callers provide provenance and cost.
  virtual void put(const std::string& key, std::string_view blob,
                   EntryInfo info) = 0;

  /// put() over many entries, each followed by its record_cost: the write
  /// half of fetch_many. An entry whose encode or write throws is left
  /// unstored, a cost whose record throws is left unrecorded, both are
  /// reported, and the rest are stored: a failed cache write costs a later
  /// recompute, never the results in hand. This default handles the
  /// entries in order on the calling thread and ignores `parallel`. A
  /// tier may override it to encode and write across `parallel`; it still
  /// updates its counters on the calling thread.
  virtual PutFailures put_many(const std::vector<PutEntry>& entries,
                               const ParallelFor& parallel);

  /// Sidecar lookup without touching the payload.
  [[nodiscard]] virtual std::optional<EntryInfo> info(
      const std::string& key) = 0;

  /// Measured-cost table: seconds per grid point under a coarse
  /// (params, backend, axis) key — store_key.hpp's cost_key. Persisted
  /// across runs; seeds the campaign's longest-first ordering before any
  /// probe runs.
  [[nodiscard]] virtual std::optional<double> lookup_cost(
      const std::string& cost_key) = 0;
  virtual void record_cost(const std::string& cost_key,
                           double seconds_per_point) = 0;

  /// Counters (persisted + this session) and the on-disk footprint.
  [[nodiscard]] virtual StoreStats stats() = 0;

  /// Checksums every entry; returns the keys that fail (corrupt payload,
  /// bad header, sidecar/payload hash mismatch, orphan sidecar) and the
  /// names of temp files left by writers that are no longer running.
  [[nodiscard]] virtual std::vector<std::string> verify() = 0;

  /// Removes everything verify() flags; returns the removed count.
  virtual std::size_t gc() = 0;

  /// Persists the session counters (local tier); called by the
  /// destructor, idempotent.
  virtual void flush() {}
};

/// The no-op tier: every fetch misses, every put vanishes. Lets all call
/// sites wire the store unconditionally — no cache configured means a
/// NullResultStore, not a null pointer.
class NullResultStore final : public ResultStore {
 public:
  [[nodiscard]] const char* tier_name() const noexcept override {
    return "null";
  }
  [[nodiscard]] std::optional<std::string> fetch(const std::string&) override {
    ++stats_.misses;
    return std::nullopt;
  }
  void put(const std::string&, std::string_view, EntryInfo) override {}
  /// Nothing to store, so nothing is encoded.
  PutFailures put_many(const std::vector<PutEntry>&,
                       const ParallelFor&) override {
    return {};
  }
  [[nodiscard]] std::optional<EntryInfo> info(const std::string&) override {
    return std::nullopt;
  }
  [[nodiscard]] std::optional<double> lookup_cost(
      const std::string&) override {
    return std::nullopt;
  }
  void record_cost(const std::string&, double) override {}
  [[nodiscard]] StoreStats stats() override { return stats_; }
  [[nodiscard]] std::vector<std::string> verify() override { return {}; }
  std::size_t gc() override { return 0; }

 private:
  StoreStats stats_;
};

/// The local on-disk tier. Layout under the cache directory:
///   entries/<key>.bin    one serialized blob per entry
///   entries/<key>.info   narinfo-style sidecar ("Field: value" lines)
///   costs/<hex16>.cost   measured seconds-per-point, one per cost key
///   stats                cumulative hit/miss/store/corrupt counters
/// Writes are atomic (temp file + rename) so a killed run never leaves a
/// half-written entry behind; fetch verifies the entry checksum and that
/// the sidecar records the same one before returning bytes, in one pass
/// over them. fetch_many reads and verifies its entries across the hook
/// and put_many encodes and writes them across it, so the blobs of a
/// campaign load and store on the pool. Every other method, and the
/// counters, belong to one thread at a time.
class LocalResultStore final : public ResultStore {
 public:
  /// Creates the directory tree; throws StoreError when that fails.
  explicit LocalResultStore(std::filesystem::path root);
  ~LocalResultStore() override;

  LocalResultStore(const LocalResultStore&) = delete;
  LocalResultStore& operator=(const LocalResultStore&) = delete;

  [[nodiscard]] const char* tier_name() const noexcept override {
    return "local";
  }
  [[nodiscard]] std::optional<std::string> fetch(
      const std::string& key) override;
  void fetch_many(const std::vector<std::string>& keys,
                  const ParallelFor& parallel,
                  const BlobSink& sink) override;
  void put(const std::string& key, std::string_view blob,
           EntryInfo info) override;
  PutFailures put_many(const std::vector<PutEntry>& entries,
                       const ParallelFor& parallel) override;
  [[nodiscard]] std::optional<EntryInfo> info(const std::string& key) override;
  [[nodiscard]] std::optional<double> lookup_cost(
      const std::string& cost_key) override;
  void record_cost(const std::string& cost_key,
                   double seconds_per_point) override;
  [[nodiscard]] StoreStats stats() override;
  [[nodiscard]] std::vector<std::string> verify() override;
  std::size_t gc() override;
  void flush() override;

  [[nodiscard]] const std::filesystem::path& root() const noexcept {
    return root_;
  }

 private:
  std::filesystem::path entry_path(const std::string& key) const;
  std::filesystem::path info_path(const std::string& key) const;
  /// put()'s writes, touching no counter (put_many runs it on the pool).
  void write_entry(const std::string& key, std::string_view blob,
                   EntryInfo info) const;

  std::filesystem::path root_;
  StoreStats session_;  ///< this process's counters, merged on flush()
};

/// Store factory over the `--cache-dir=` / `cache=` vocabulary:
///   "", "none", "null"          → NullResultStore
///   "http://…", "https://…",
///   "s3://…"                    → StoreError (no remote tier)
///   anything else, "file://…"   → LocalResultStore at that path
[[nodiscard]] std::unique_ptr<ResultStore> make_store(const std::string& spec);

/// Renders a sidecar / parses one back ("Field: value" lines, unknown
/// fields ignored for forward compatibility). parse throws StoreError on
/// a structurally unusable sidecar (no key line).
[[nodiscard]] std::string format_entry_info(const EntryInfo& info);
[[nodiscard]] EntryInfo parse_entry_info(const std::string& text);

}  // namespace rexspeed::store
