#include "rexspeed/store/serialize.hpp"

#include <bit>
#include <cstring>

#include "rexspeed/store/hash.hpp"

namespace rexspeed::store {

namespace {

constexpr char kMagic[4] = {'R', 'X', 'S', 'C'};

// Header = magic + version + kind; trailer = u64 checksum.
constexpr std::size_t kHeaderSize = 4 + 4 + 1;
constexpr std::size_t kTrailerSize = 8;

}  // namespace

// ---- ByteWriter ----------------------------------------------------------

void ByteWriter::u8(std::uint8_t value) {
  bytes_.push_back(static_cast<char>(value));
}

// Little-endian into a local buffer, appended once: one capacity check
// per field instead of one per byte.
void ByteWriter::u32(std::uint32_t value) {
  char buffer[4];
  for (int i = 0; i < 4; ++i) {
    buffer[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  bytes_.append(buffer, sizeof buffer);
}

void ByteWriter::u64(std::uint64_t value) {
  char buffer[8];
  for (int i = 0; i < 8; ++i) {
    buffer[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  bytes_.append(buffer, sizeof buffer);
}

void ByteWriter::i32(std::int32_t value) {
  u32(static_cast<std::uint32_t>(value));
}

void ByteWriter::f64(double value) {
  u64(std::bit_cast<std::uint64_t>(value));
}

void ByteWriter::boolean(bool value) { u8(value ? 1 : 0); }

void ByteWriter::str(std::string_view value) {
  if (value.size() > 0xffffffffu) {
    throw SerializeError("serialize: string too long");
  }
  u32(static_cast<std::uint32_t>(value.size()));
  bytes_.append(value.data(), value.size());
}

void ByteWriter::raw(const void* data, std::size_t size) {
  bytes_.append(static_cast<const char*>(data), size);
}

void ByteWriter::reserve(std::size_t extra) {
  bytes_.reserve(bytes_.size() + extra);
}

// ---- ByteReader ----------------------------------------------------------

void ByteReader::need(std::size_t count) const {
  if (bytes_.size() - offset_ < count) {
    throw SerializeError("deserialize: truncated blob");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[offset_++]);
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= std::uint32_t{static_cast<std::uint8_t>(bytes_[offset_ + i])}
             << (8 * i);
  }
  offset_ += 4;
  return value;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= std::uint64_t{static_cast<std::uint8_t>(bytes_[offset_ + i])}
             << (8 * i);
  }
  offset_ += 8;
  return value;
}

std::int32_t ByteReader::i32() {
  return static_cast<std::int32_t>(u32());
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

bool ByteReader::boolean() {
  const std::uint8_t value = u8();
  if (value > 1) {
    throw SerializeError("deserialize: malformed boolean");
  }
  return value == 1;
}

std::string ByteReader::str() {
  const std::uint32_t length = u32();
  need(length);
  std::string value(bytes_.substr(offset_, length));
  offset_ += length;
  return value;
}

void ByteReader::expect_end() const {
  if (offset_ != bytes_.size()) {
    throw SerializeError("deserialize: trailing bytes after payload");
  }
}

// ---- payload serializers -------------------------------------------------

namespace {

void write_pair_solution(ByteWriter& out, const core::PairSolution& pair) {
  out.f64(pair.sigma1);
  out.f64(pair.sigma2);
  out.i32(pair.sigma1_index);
  out.i32(pair.sigma2_index);
  out.boolean(pair.feasible);
  out.boolean(pair.first_order_valid);
  out.f64(pair.rho_min);
  out.f64(pair.w_opt);
  out.f64(pair.w_energy);
  out.f64(pair.w_min);
  out.f64(pair.w_max);
  out.f64(pair.energy_overhead);
  out.f64(pair.time_overhead);
}

core::PairSolution read_pair_solution(ByteReader& in) {
  core::PairSolution pair;
  pair.sigma1 = in.f64();
  pair.sigma2 = in.f64();
  pair.sigma1_index = in.i32();
  pair.sigma2_index = in.i32();
  pair.feasible = in.boolean();
  pair.first_order_valid = in.boolean();
  pair.rho_min = in.f64();
  pair.w_opt = in.f64();
  pair.w_energy = in.f64();
  pair.w_min = in.f64();
  pair.w_max = in.f64();
  pair.energy_overhead = in.f64();
  pair.time_overhead = in.f64();
  return pair;
}

void write_interleaved_solution(ByteWriter& out,
                                const core::InterleavedSolution& solution) {
  out.boolean(solution.feasible);
  out.u32(solution.segments);
  out.f64(solution.sigma1);
  out.f64(solution.sigma2);
  out.f64(solution.w_opt);
  out.f64(solution.energy_overhead);
  out.f64(solution.time_overhead);
}

core::InterleavedSolution read_interleaved_solution(ByteReader& in) {
  core::InterleavedSolution solution;
  solution.feasible = in.boolean();
  solution.segments = in.u32();
  solution.sigma1 = in.f64();
  solution.sigma2 = in.f64();
  solution.w_opt = in.f64();
  solution.energy_overhead = in.f64();
  solution.time_overhead = in.f64();
  return solution;
}

core::SolutionKind read_solution_kind(ByteReader& in) {
  const std::uint8_t tag = in.u8();
  if (tag > 1) {
    throw SerializeError("deserialize: malformed solution kind");
  }
  return tag == 0 ? core::SolutionKind::kPair
                  : core::SolutionKind::kInterleaved;
}

void write_solution(ByteWriter& out, const core::Solution& solution) {
  out.u8(solution.kind == core::SolutionKind::kPair ? 0 : 1);
  write_pair_solution(out, solution.pair);
  write_interleaved_solution(out, solution.interleaved);
  out.boolean(solution.used_fallback);
}

core::Solution read_solution(ByteReader& in) {
  core::Solution solution;
  solution.kind = read_solution_kind(in);
  solution.pair = read_pair_solution(in);
  solution.interleaved = read_interleaved_solution(in);
  solution.used_fallback = in.boolean();
  return solution;
}

// Encoded sizes, matching the writers above: a Solution is its kind tag,
// the pair (9 f64, 2 i32, 2 booleans), the interleaved solution (boolean,
// u32, 5 f64) and the fallback flag; a point is x plus two solutions.
constexpr std::size_t kSolutionBytes = 1 + (9 * 8 + 2 * 4 + 2) +
                                       (1 + 4 + 5 * 8) + 1;
constexpr std::size_t kPointBytes = 8 + 2 * kSolutionBytes;

void write_panel_series(ByteWriter& out, const sweep::PanelSeries& series) {
  // The header fields, the points and finish_blob's trailer, so encoding
  // a panel never regrows the buffer.
  out.reserve(4 + 4 + series.configuration.size() + 8 + 1 + 4 + 4 +
              series.points.size() * kPointBytes + kTrailerSize);
  out.u32(static_cast<std::uint32_t>(series.parameter));
  out.str(series.configuration);
  out.f64(series.rho);
  out.u8(series.kind == core::SolutionKind::kPair ? 0 : 1);
  out.u32(series.max_segments);
  if (series.points.size() > 0xffffffffu) {
    throw SerializeError("serialize: panel too large");
  }
  out.u32(static_cast<std::uint32_t>(series.points.size()));
  for (const core::PanelPoint& point : series.points) {
    out.f64(point.x);
    write_solution(out, point.primary);
    write_solution(out, point.baseline);
  }
}

sweep::PanelSeries read_panel_series(ByteReader& in) {
  sweep::PanelSeries series;
  const std::uint32_t axis = in.u32();
  if (axis > static_cast<std::uint32_t>(core::SweepAxis::kSegments)) {
    throw SerializeError("deserialize: malformed sweep axis");
  }
  series.parameter = static_cast<sweep::SweepParameter>(axis);
  series.configuration = in.str();
  series.rho = in.f64();
  const std::uint8_t kind = in.u8();
  if (kind > 1) {
    throw SerializeError("deserialize: malformed panel kind");
  }
  series.kind = kind == 0 ? core::SolutionKind::kPair
                          : core::SolutionKind::kInterleaved;
  series.max_segments = in.u32();
  const std::uint32_t count = in.u32();
  // Each point is at least x + two solutions; a cheap lower bound on the
  // bytes still owed rejects absurd counts before any allocation.
  if (static_cast<std::uint64_t>(count) * 8 > in.remaining()) {
    throw SerializeError("deserialize: malformed point count");
  }
  series.points.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    core::PanelPoint point;
    point.x = in.f64();
    point.primary = read_solution(in);
    point.baseline = read_solution(in);
    series.points.push_back(point);
  }
  return series;
}

std::string finish_blob(ByteWriter&& out) {
  out.u64(fnv1a64(out.bytes().data(), out.bytes().size()));
  return out.take();
}

/// Validates magic/version/checksum and returns a reader positioned at the
/// payload (after the kind byte), plus what the check found.
BlobEnvelope open_envelope(std::string_view bytes, ByteReader& payload) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    throw SerializeError("deserialize: blob shorter than header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SerializeError("deserialize: bad magic (not a rexspeed blob)");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kTrailerSize);
  ByteReader trailer(bytes.substr(bytes.size() - kTrailerSize));
  const std::uint64_t stored = trailer.u64();
  const std::uint64_t actual = fnv1a64(body.data(), body.size());
  if (stored != actual) {
    throw SerializeError("deserialize: checksum mismatch (corrupt blob)");
  }
  ByteReader header(body.substr(sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    throw SerializeError("deserialize: unsupported format version " +
                         std::to_string(version));
  }
  const std::uint8_t kind = header.u8();
  if (kind > 1) {
    throw SerializeError("deserialize: malformed payload kind");
  }
  payload = ByteReader(body.substr(kHeaderSize));
  return {static_cast<PayloadKind>(kind), actual};
}

}  // namespace

std::string serialize_solution(const core::Solution& solution) {
  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u32(kFormatVersion);
  out.u8(static_cast<std::uint8_t>(PayloadKind::kSolution));
  write_solution(out, solution);
  return finish_blob(std::move(out));
}

core::Solution deserialize_solution(std::string_view bytes) {
  ByteReader payload("");
  if (open_envelope(bytes, payload).kind != PayloadKind::kSolution) {
    throw SerializeError("deserialize: expected a Solution blob");
  }
  core::Solution solution = read_solution(payload);
  payload.expect_end();
  return solution;
}

std::string serialize_panel_series(const sweep::PanelSeries& series) {
  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u32(kFormatVersion);
  out.u8(static_cast<std::uint8_t>(PayloadKind::kPanelSeries));
  write_panel_series(out, series);
  return finish_blob(std::move(out));
}

sweep::PanelSeries deserialize_panel_series(std::string_view bytes) {
  ByteReader payload("");
  if (open_envelope(bytes, payload).kind != PayloadKind::kPanelSeries) {
    throw SerializeError("deserialize: expected a PanelSeries blob");
  }
  sweep::PanelSeries series = read_panel_series(payload);
  payload.expect_end();
  return series;
}

BlobEnvelope check_envelope(std::string_view bytes) {
  ByteReader payload("");
  return open_envelope(bytes, payload);
}

}  // namespace rexspeed::store
