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

/// On-disk format version. Bump whenever the byte layout below changes —
/// old entries then fail the header check and are recomputed (the same
/// invalidation path as a backend version-tag change, one layer down).
inline constexpr std::uint32_t kFormatVersion = 1;

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

/// Lossless binary serialization of the store's two payload types. Layout:
/// magic "RXSC", u32 format version, u8 payload kind (0 = Solution,
/// 1 = PanelSeries), payload bytes, trailing u64 FNV-1a checksum over
/// everything before it. deserialize_* verifies the checksum before
/// touching the payload and throws SerializeError on any mismatch;
/// serialize(deserialize(b)) == b and deserialize(serialize(v)) == v
/// bit for bit (tested contract).
[[nodiscard]] std::string serialize_solution(const core::Solution& solution);
[[nodiscard]] core::Solution deserialize_solution(std::string_view bytes);

[[nodiscard]] std::string serialize_panel_series(
    const sweep::PanelSeries& series);
[[nodiscard]] sweep::PanelSeries deserialize_panel_series(
    std::string_view bytes);

/// Payload kind recorded in a blob's header.
enum class PayloadKind : std::uint8_t {
  kSolution = 0,
  kPanelSeries = 1,
};

/// What the envelope check of a blob found: its payload kind, and the
/// FNV-1a 64 of its body (every byte before the trailing checksum) —
/// the value the checksum was verified against. Continued over the 8
/// trailer bytes (hash.hpp's seeded fnv1a64) it is the hash of the whole
/// blob, so the store checks a sidecar's payload hash without a second
/// pass over the bytes.
struct BlobEnvelope {
  PayloadKind kind = PayloadKind::kSolution;
  std::uint64_t body_hash = 0;
};

/// Checks a blob's magic, format version and checksum without decoding
/// its payload (throws SerializeError on any failure) — what the store's
/// fetch paths and `rexspeed cache verify` run on every entry.
[[nodiscard]] BlobEnvelope check_envelope(std::string_view bytes);

}  // namespace rexspeed::store
