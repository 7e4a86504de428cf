#pragma once

#include <array>
#include <cstdint>

namespace rexspeed::sim {

/// xoshiro256++ pseudo-random generator (Blackman & Vigna), seeded through
/// SplitMix64 so that any 64-bit seed — including 0 — yields a well-mixed
/// state. Deterministic across platforms, which the reproduction relies on:
/// every Monte-Carlo experiment in the tests is re-runnable bit-for-bit.
///
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next 64 pseudo-random bits.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in (0, 1] — safe as input to -log(u) sampling.
  [[nodiscard]] double uniform_positive() noexcept;

  /// Jumps ahead by 2^128 steps; provides independent parallel streams.
  void jump() noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  [[nodiscard]] bool operator==(const Xoshiro256&) const = default;

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// SplitMix64 step — also exposed for deriving per-replication seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace rexspeed::sim
