#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rexspeed::store {

/// 64-bit FNV-1a over a byte range — the checksum of canonical blobs and
/// shard frames, and the cost table's key hash. Stable across platforms
/// (pure integer arithmetic, byte-oriented), not cryptographic: checksums
/// detect corruption, not adversaries.
[[nodiscard]] std::uint64_t fnv1a64(const void* data,
                                    std::size_t size) noexcept;
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// The store entries' checksum: four independent 64-bit multiply-xorshift
/// lanes over little-endian 8-byte words (word i feeds lane i % 4), the
/// 0–7 tail bytes zero-padded into one last word, the lanes folded in
/// order and the length mixed in. Every step is a bijection of the state
/// it updates, so any single flipped bit changes the result; the lanes
/// carry no dependency on each other, so a pass runs at several bytes
/// per cycle where FNV-1a's byte chain manages one. Stable across
/// platforms (words are read little-endian at any alignment); detects
/// corruption, not adversaries.
[[nodiscard]] std::uint64_t lane_hash64(const void* data,
                                        std::size_t size) noexcept;
[[nodiscard]] std::uint64_t lane_hash64(std::string_view bytes) noexcept;

/// Incremental SHA-256 (FIPS 180-4), dependency-free — the store's
/// content-address hash. Keys are the hex digest of a canonical
/// serialization of everything a solve depends on, so equal inputs
/// collide on purpose and nothing else does in practice.
class Sha256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  Sha256();

  void update(const void* data, std::size_t size) noexcept;
  void update(std::string_view bytes) noexcept;

  /// Finishes the hash (the object must not be updated afterwards).
  [[nodiscard]] Digest finish() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static Digest of(std::string_view bytes) noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Lower-case hex of a digest (64 characters for SHA-256).
[[nodiscard]] std::string to_hex(const Sha256::Digest& digest);

/// Lower-case 16-character hex of a 64-bit hash.
[[nodiscard]] std::string to_hex(std::uint64_t value);

}  // namespace rexspeed::store
