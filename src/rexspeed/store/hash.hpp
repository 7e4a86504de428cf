#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rexspeed::store {

/// 64-bit FNV-1a over a byte range — the store's cheap integrity and
/// cost-table hash. Stable across platforms (pure integer arithmetic,
/// byte-oriented), not cryptographic: entry checksums detect corruption,
/// not adversaries.
[[nodiscard]] std::uint64_t fnv1a64(const void* data,
                                    std::size_t size) noexcept;
/// The same hash continued from `seed`, the value of an earlier call:
/// fnv1a64(b, n, fnv1a64(a, m)) is the hash of a's m bytes followed by
/// b's n, so a caller that already hashed a prefix finishes the whole
/// range without a second pass over it.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size,
                                    std::uint64_t seed) noexcept;
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

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
