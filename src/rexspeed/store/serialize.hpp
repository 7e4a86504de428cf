#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "rexspeed/core/solver_backend.hpp"
#include "rexspeed/sweep/panel_sweep.hpp"

namespace rexspeed::store {

/// Thrown on any malformed, truncated, version-mismatched or
/// checksum-failing blob. The store treats every SerializeError as "entry
/// corrupt": verify-on-fetch converts it into a recompute, never a crash.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Store entry format version (encode_*_entry below). Bump whenever the
/// entry layout changes — old entries then fail check_envelope and are
/// recomputed and re-put (the same invalidation path as a backend
/// version-tag change, one layer down). Version 1 entries were the
/// canonical blobs below.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Version written and accepted by the canonical codec (serialize_* /
/// deserialize_*). Fixed: its bytes are the identity form that result
/// fingerprints and byte-identity tests compare.
inline constexpr std::uint32_t kCanonicalVersion = 1;

/// Canonical little-endian byte-stream writer shared by the serializers
/// and the key derivation (store_key.cpp). Doubles are written as their
/// IEEE-754 bit patterns, so round trips are bit-exact (NaN payloads and
/// signed zeros included) and equal inputs hash equally across platforms.
class ByteWriter {
 public:
  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i32(std::int32_t value);
  void f64(double value);
  void boolean(bool value);
  void str(std::string_view value);  ///< u32 length + raw bytes
  void raw(const void* data, std::size_t size);
  /// Room for `extra` more bytes (an encoder that knows its size up
  /// front appends without regrowing).
  void reserve(std::size_t extra);

  [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked reader over a serialized blob; every overrun or invalid
/// enum throws SerializeError.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::string str();
  /// The next `count` bytes, as a view into the blob.
  [[nodiscard]] std::string_view bytes(std::size_t count);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }
  /// Throws unless every byte has been consumed — trailing garbage means
  /// the blob does not round-trip and must not be trusted.
  void expect_end() const;

 private:
  void need(std::size_t count) const;

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

/// The canonical serialization of the store's two payload types: the
/// identity form results are compared and fingerprinted in, not what the
/// store writes (encode_*_entry). Layout: magic "RXSC", u32
/// kCanonicalVersion, u8 payload kind (0 = Solution, 1 = PanelSeries),
/// the payload row by row, trailing u64 FNV-1a checksum over everything
/// before it. deserialize_* verifies the checksum before touching the
/// payload and throws SerializeError on any mismatch;
/// serialize(deserialize(b)) == b and deserialize(serialize(v)) == v
/// bit for bit (tested contract).
[[nodiscard]] std::string serialize_solution(const core::Solution& solution);
[[nodiscard]] core::Solution deserialize_solution(std::string_view bytes);

[[nodiscard]] std::string serialize_panel_series(
    const sweep::PanelSeries& series);
[[nodiscard]] sweep::PanelSeries deserialize_panel_series(
    std::string_view bytes);

/// Size of the canonical blob of a value, without serializing it — what
/// an entry's sidecar records beside its encoded size.
[[nodiscard]] std::size_t canonical_size(const core::Solution& solution);
[[nodiscard]] std::size_t canonical_size(const sweep::PanelSeries& series);

/// Payload kind recorded in a blob's header.
enum class PayloadKind : std::uint8_t {
  kSolution = 0,
  kPanelSeries = 1,
};

/// Store entries (format kFormatVersion): what the store writes, fetches
/// and ships between processes. Layout: magic "RXSC", u32
/// kFormatVersion, u8 payload kind, the payload, trailing u64
/// lane_hash64 (hash.hpp) of everything before it.
///
/// A panel payload is its header (axis, configuration, ρ, kind, segment
/// cap, point count, as in the canonical form) and then one column per
/// PanelPoint field: x, then the 22 fields of `primary`, then those of
/// `baseline`. A solution payload is the 22 columns of one row. Each
/// column holds its values as u64 words — doubles as their IEEE-754 bit
/// patterns, integers zero-extended, flags and kinds as 0/1 — behind a
/// u8 tag saying which of four layouts it uses:
///   0 raw     the n words;
///   1 runs    u32 run count, then (word, u32 length) per maximal run;
///   2 repeat  ⌈n/8⌉ bitmap bytes (bit i: row i equals row i−1), then the
///             word of every row whose bit is clear;
///   3 dict    u8 entry count − 1, the ≤ 256 distinct words in order of
///             first appearance, then one u8 index per row.
/// The encoder writes the smallest layout (the lowest tag on a tie), so
/// every value has exactly one encoding. The decoder rejects any other —
/// a non-maximal run, a stray bitmap bit, an unused or repeated
/// dictionary entry, a layout that is not the smallest, a flag above 1 —
/// so decode then encode reproduces its input byte for byte.
[[nodiscard]] std::string encode_panel_entry(const sweep::PanelSeries& series);
[[nodiscard]] std::string encode_solution_entry(
    const core::Solution& solution);

/// Decodes an entry that check_envelope has passed: checks the header
/// and bounds-checks every read, but does not recompute the checksum.
/// A panel must hold exactly `points` points (what its caller planned),
/// so a damaged count never sizes an allocation. Throws SerializeError.
[[nodiscard]] sweep::PanelSeries decode_panel_entry(std::string_view blob,
                                                    std::size_t points);
[[nodiscard]] core::Solution decode_solution_entry(std::string_view blob);

/// What the envelope check of an entry found: its payload kind and its
/// checksum — the lane_hash64 of the body, equal to the trailer, and
/// the value its sidecar records as DataHash.
struct BlobEnvelope {
  PayloadKind kind = PayloadKind::kSolution;
  std::uint64_t checksum = 0;
};

/// Checks an entry's magic, format version and checksum without decoding
/// its payload (throws SerializeError on any failure; canonical blobs
/// fail on their version) — the one pass over the bytes the store's
/// fetch paths and `rexspeed cache verify` make per entry.
[[nodiscard]] BlobEnvelope check_envelope(std::string_view bytes);

/// The checksum a blob's trailer records (its last 8 bytes,
/// little-endian; 0 for a blob shorter than that). For an entry that
/// passes check_envelope it is BlobEnvelope::checksum, so the store
/// records it in the sidecar without another pass over the bytes.
[[nodiscard]] std::uint64_t stored_checksum(std::string_view bytes) noexcept;

}  // namespace rexspeed::store
