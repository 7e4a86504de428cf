#include "rexspeed/store/hash.hpp"

#include <bit>
#include <cstring>

namespace rexspeed::store {

std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  return fnv1a64(bytes.data(), bytes.size());
}

namespace {

constexpr std::uint64_t kLanePrime1 = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kLanePrime2 = 0xc2b2ae3d27d4eb4fULL;

std::uint64_t load_le64(const std::uint8_t* bytes) noexcept {
  std::uint64_t word;
  std::memcpy(&word, bytes, sizeof word);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// One lane step: xor the word in, multiply by an odd constant, fold the
/// high half down — each a bijection of the lane for a fixed word.
std::uint64_t lane_step(std::uint64_t lane, std::uint64_t word) noexcept {
  lane = (lane ^ word) * kLanePrime1;
  return lane ^ (lane >> 32);
}

/// MurmurHash3's fmix64 finalizer (a bijection).
std::uint64_t avalanche(std::uint64_t value) noexcept {
  value ^= value >> 33;
  value *= 0xff51afd7ed558ccdULL;
  value ^= value >> 33;
  value *= 0xc4ceb9fe1a85ec53ULL;
  return value ^ (value >> 33);
}

}  // namespace

std::uint64_t lane_hash64(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t lanes[4] = {kLanePrime2, kLanePrime2 * 3, kLanePrime2 * 5,
                            kLanePrime2 * 7};
  std::size_t offset = 0;
  for (; offset + 32 <= size; offset += 32) {
    lanes[0] = lane_step(lanes[0], load_le64(bytes + offset));
    lanes[1] = lane_step(lanes[1], load_le64(bytes + offset + 8));
    lanes[2] = lane_step(lanes[2], load_le64(bytes + offset + 16));
    lanes[3] = lane_step(lanes[3], load_le64(bytes + offset + 24));
  }
  std::size_t lane = 0;
  for (; offset + 8 <= size; offset += 8, ++lane) {
    lanes[lane] = lane_step(lanes[lane], load_le64(bytes + offset));
  }
  if (offset < size) {
    std::uint8_t tail[8] = {};
    std::memcpy(tail, bytes + offset, size - offset);
    lanes[lane] = lane_step(lanes[lane], load_le64(tail));
  }
  // In order, so a change confined to one lane survives every later step.
  std::uint64_t fold = static_cast<std::uint64_t>(size) * kLanePrime1;
  for (const std::uint64_t value : lanes) {
    fold = ((fold << 23) | (fold >> 41)) ^ avalanche(value);
  }
  return avalanche(fold);
}

std::uint64_t lane_hash64(std::string_view bytes) noexcept {
  return lane_hash64(bytes.data(), bytes.size());
}

namespace {

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::process_block(const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += size;
  if (buffered_ > 0) {
    const std::size_t take = std::min(size, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    size -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (size >= buffer_.size()) {
    process_block(bytes);
    bytes += buffer_.size();
    size -= buffer_.size();
  }
  if (size > 0) {
    std::memcpy(buffer_.data() + buffered_, bytes, size);
    buffered_ += size;
  }
}

void Sha256::update(std::string_view bytes) noexcept {
  update(bytes.data(), bytes.size());
}

Sha256::Digest Sha256::finish() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;
  const std::uint8_t pad_byte = 0x80;
  update(&pad_byte, 1);
  const std::uint8_t zero = 0;
  while (buffered_ != 56) {
    update(&zero, 1);
  }
  std::uint8_t length_bytes[8];
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  }
  // Bypass update() for the length so total_bytes_ bookkeeping (already
  // captured in bit_length) cannot recurse into another padding round.
  std::memcpy(buffer_.data() + buffered_, length_bytes, 8);
  process_block(buffer_.data());

  Digest digest{};
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256::Digest Sha256::of(std::string_view bytes) noexcept {
  Sha256 hasher;
  hasher.update(bytes);
  return hasher.finish();
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
}

std::string to_hex(const Sha256::Digest& digest) {
  std::string out;
  out.reserve(digest.size() * 2);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0x0f]);
  }
  return out;
}

std::string to_hex(std::uint64_t value) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[value & 0x0f];
    value >>= 4;
  }
  return out;
}

}  // namespace rexspeed::store
