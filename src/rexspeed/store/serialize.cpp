#include "rexspeed/store/serialize.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

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

std::string_view ByteReader::bytes(std::size_t count) {
  need(count);
  const std::string_view view = bytes_.substr(offset_, count);
  offset_ += count;
  return view;
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

/// A default-constructed payload: what both codecs store for the payload
/// a Solution does not hold.
template <class Payload>
const Payload kInactive{};

template <class Payload>
const Payload& payload_or_default(const core::Solution& solution) {
  const Payload* payload = solution.payload_if<Payload>();
  return payload != nullptr ? *payload : kInactive<Payload>;
}

/// Reads the payload a Solution does not hold: only the bytes of a default
/// one are accepted, so decode → encode stays the identity.
template <class Payload, class Write>
void skip_inactive(ByteReader& in, Write write) {
  static const std::string expected = [write] {
    ByteWriter out;
    write(out, kInactive<Payload>);
    return out.take();
  }();
  if (in.bytes(expected.size()) != expected) {
    throw SerializeError("deserialize: inactive payload holds non-default "
                         "values");
  }
}

void write_solution(ByteWriter& out, const core::Solution& solution) {
  out.u8(solution.kind() == core::SolutionKind::kPair ? 0 : 1);
  write_pair_solution(out, payload_or_default<core::PairSolution>(solution));
  write_interleaved_solution(
      out, payload_or_default<core::InterleavedSolution>(solution));
  out.boolean(solution.used_fallback);
}

core::Solution read_solution(ByteReader& in) {
  core::Solution solution;
  if (read_solution_kind(in) == core::SolutionKind::kPair) {
    solution = core::Solution::from_pair(read_pair_solution(in));
    skip_inactive<core::InterleavedSolution>(in, write_interleaved_solution);
  } else {
    skip_inactive<core::PairSolution>(in, write_pair_solution);
    solution = core::Solution::from_interleaved(read_interleaved_solution(in));
  }
  solution.used_fallback = in.boolean();
  return solution;
}

// Encoded sizes, matching the writers above: a Solution is its kind tag,
// the pair (9 f64, 2 i32, 2 booleans), the interleaved solution (boolean,
// u32, 5 f64) and the fallback flag; a point is x plus two solutions.
constexpr std::size_t kSolutionBytes = 1 + (9 * 8 + 2 * 4 + 2) +
                                       (1 + 4 + 5 * 8) + 1;
constexpr std::size_t kPointBytes = 8 + 2 * kSolutionBytes;

/// The panel header both codecs share: axis, configuration, ρ, kind,
/// segment cap and point count.
void write_panel_header(ByteWriter& out, const sweep::PanelSeries& series) {
  out.u32(static_cast<std::uint32_t>(series.parameter));
  out.str(series.configuration);
  out.f64(series.rho);
  out.u8(series.kind == core::SolutionKind::kPair ? 0 : 1);
  out.u32(series.max_segments);
  if (series.points.size() > 0xffffffffu) {
    throw SerializeError("serialize: panel too large");
  }
  out.u32(static_cast<std::uint32_t>(series.points.size()));
}

/// Reads write_panel_header's fields into `series`; returns the count.
std::uint32_t read_panel_header(ByteReader& in, sweep::PanelSeries& series) {
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
  return in.u32();
}

void write_panel_series(ByteWriter& out, const sweep::PanelSeries& series) {
  // The header fields, the points and finish_blob's trailer, so encoding
  // a panel never regrows the buffer.
  out.reserve(canonical_size(series) - kHeaderSize);
  write_panel_header(out, series);
  for (const core::PanelPoint& point : series.points) {
    out.f64(point.x);
    write_solution(out, point.primary);
    write_solution(out, point.baseline);
  }
}

sweep::PanelSeries read_panel_series(ByteReader& in) {
  sweep::PanelSeries series;
  const std::uint32_t count = read_panel_header(in, series);
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

/// Validates a canonical blob's magic, version and checksum and returns a
/// reader positioned at the payload (after the kind byte), plus its kind.
PayloadKind open_envelope(std::string_view bytes, ByteReader& payload) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    throw SerializeError("deserialize: blob shorter than header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SerializeError("deserialize: bad magic (not a rexspeed blob)");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kTrailerSize);
  ByteReader trailer(bytes.substr(bytes.size() - kTrailerSize));
  if (trailer.u64() != fnv1a64(body.data(), body.size())) {
    throw SerializeError("deserialize: checksum mismatch (corrupt blob)");
  }
  ByteReader header(body.substr(sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != kCanonicalVersion) {
    throw SerializeError("deserialize: unsupported format version " +
                         std::to_string(version));
  }
  const std::uint8_t kind = header.u8();
  if (kind > 1) {
    throw SerializeError("deserialize: malformed payload kind");
  }
  payload = ByteReader(body.substr(kHeaderSize));
  return static_cast<PayloadKind>(kind);
}

}  // namespace

std::string serialize_solution(const core::Solution& solution) {
  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u32(kCanonicalVersion);
  out.u8(static_cast<std::uint8_t>(PayloadKind::kSolution));
  write_solution(out, solution);
  return finish_blob(std::move(out));
}

core::Solution deserialize_solution(std::string_view bytes) {
  ByteReader payload("");
  if (open_envelope(bytes, payload) != PayloadKind::kSolution) {
    throw SerializeError("deserialize: expected a Solution blob");
  }
  core::Solution solution = read_solution(payload);
  payload.expect_end();
  return solution;
}

std::string serialize_panel_series(const sweep::PanelSeries& series) {
  ByteWriter out;
  out.raw(kMagic, sizeof(kMagic));
  out.u32(kCanonicalVersion);
  out.u8(static_cast<std::uint8_t>(PayloadKind::kPanelSeries));
  write_panel_series(out, series);
  return finish_blob(std::move(out));
}

sweep::PanelSeries deserialize_panel_series(std::string_view bytes) {
  ByteReader payload("");
  if (open_envelope(bytes, payload) != PayloadKind::kPanelSeries) {
    throw SerializeError("deserialize: expected a PanelSeries blob");
  }
  sweep::PanelSeries series = read_panel_series(payload);
  payload.expect_end();
  return series;
}

// ---- store entries -------------------------------------------------------

namespace {

static_assert(sizeof(unsigned) == 4 && sizeof(int) == 4,
              "columns widen 32-bit integers");

// The u64 word a column stores for a field value, and back. narrow()
// fails on a word no value of the field widens to, so the decoder
// rejects it rather than truncate it.
std::uint64_t widen(double value) {
  return std::bit_cast<std::uint64_t>(value);
}
std::uint64_t widen(bool value) { return value ? 1 : 0; }
std::uint64_t widen(int value) { return static_cast<std::uint32_t>(value); }
std::uint64_t widen(unsigned value) { return value; }
std::uint64_t widen(core::SolutionKind kind) {
  return kind == core::SolutionKind::kPair ? 0 : 1;
}

bool narrow(std::uint64_t word, double& value) {
  value = std::bit_cast<double>(word);
  return true;
}
bool narrow(std::uint64_t word, bool& value) {
  value = word == 1;
  return word <= 1;
}
bool narrow(std::uint64_t word, int& value) {
  value = static_cast<int>(static_cast<std::uint32_t>(word));
  return word <= 0xffffffffu;
}
bool narrow(std::uint64_t word, unsigned& value) {
  value = static_cast<unsigned>(word);
  return word <= 0xffffffffu;
}
bool narrow(std::uint64_t word, core::SolutionKind& kind) {
  kind = word == 0 ? core::SolutionKind::kPair
                   : core::SolutionKind::kInterleaved;
  return word <= 1;
}

/// One stored column of a Row: get(row) is the word the encoder writes,
/// put(row, word) stores a decoded word back and returns false when no
/// value of the field widens to it.
template <class Get, class Put>
struct Column {
  Get get;
  Put put;
};
template <class Get, class Put>
Column(Get, Put) -> Column<Get, Put>;  // for compilers without aggregate CTAD

/// The column of a plain field; field(row) returns a reference to it.
template <class Field>
auto plain_column(Field field) {
  return Column{[field](const auto& row) { return widen(field(row)); },
                [field](auto& row, std::uint64_t word) {
                  return narrow(word, field(row));
                }};
}

/// The column of a `Payload` field; field(payload) returns a reference to
/// it. A Solution holding the other payload stores the default's word,
/// and decodes only that word.
template <class Payload, class Field>
auto payload_column(Field field) {
  return Column{
      [field](const core::Solution& s) {
        return widen(field(payload_or_default<Payload>(s)));
      },
      [field](core::Solution& s, std::uint64_t word) {
        if (Payload* payload = s.payload_if<Payload>()) {
          return narrow(word, field(*payload));
        }
        return word == widen(field(kInactive<Payload>));
      }};
}

/// Calls visit(column) for every stored field of a Solution, in column
/// order. The kind comes first: it picks each row's payload before the
/// payload columns are decoded into it.
template <class Visit>
void for_each_solution_field(Visit&& visit) {
  using core::InterleavedSolution;
  using core::PairSolution;
  visit(Column{[](const core::Solution& s) { return widen(s.kind()); },
               [](core::Solution& s, std::uint64_t word) {
                 core::SolutionKind kind;
                 const bool valid = narrow(word, kind);
                 if (kind != s.kind()) {
                   s = kind == core::SolutionKind::kPair
                           ? core::Solution::from_pair({})
                           : core::Solution::from_interleaved({});
                 }
                 return valid;
               }});
  const auto pair = [&visit](auto field) {
    visit(payload_column<PairSolution>(field));
  };
  const auto pattern = [&visit](auto field) {
    visit(payload_column<InterleavedSolution>(field));
  };
  pair([](auto& p) -> auto& { return p.sigma1; });
  pair([](auto& p) -> auto& { return p.sigma2; });
  pair([](auto& p) -> auto& { return p.sigma1_index; });
  pair([](auto& p) -> auto& { return p.sigma2_index; });
  pair([](auto& p) -> auto& { return p.feasible; });
  pair([](auto& p) -> auto& { return p.first_order_valid; });
  pair([](auto& p) -> auto& { return p.rho_min; });
  pair([](auto& p) -> auto& { return p.w_opt; });
  pair([](auto& p) -> auto& { return p.w_energy; });
  pair([](auto& p) -> auto& { return p.w_min; });
  pair([](auto& p) -> auto& { return p.w_max; });
  pair([](auto& p) -> auto& { return p.energy_overhead; });
  pair([](auto& p) -> auto& { return p.time_overhead; });
  pattern([](auto& p) -> auto& { return p.feasible; });
  pattern([](auto& p) -> auto& { return p.segments; });
  pattern([](auto& p) -> auto& { return p.sigma1; });
  pattern([](auto& p) -> auto& { return p.sigma2; });
  pattern([](auto& p) -> auto& { return p.w_opt; });
  pattern([](auto& p) -> auto& { return p.energy_overhead; });
  pattern([](auto& p) -> auto& { return p.time_overhead; });
  visit(plain_column([](auto& s) -> auto& { return s.used_fallback; }));
}

/// The same for a PanelPoint: x, then the primary's fields, then the
/// baseline's.
template <class Visit>
void for_each_point_field(Visit&& visit) {
  visit(plain_column([](auto& p) -> auto& { return p.x; }));
  const auto of = [&visit](auto member) {
    return [&visit, member](auto column) {
      visit(Column{[column, member](const core::PanelPoint& p) {
                     return column.get(p.*member);
                   },
                   [column, member](core::PanelPoint& p, std::uint64_t word) {
                     return column.put(p.*member, word);
                   }});
    };
  };
  for_each_solution_field(of(&core::PanelPoint::primary));
  for_each_solution_field(of(&core::PanelPoint::baseline));
}

/// A column's layout tag (serialize.hpp documents each).
enum class Layout : std::uint8_t { kRaw = 0, kRuns = 1, kRepeat = 2, kDict = 3 };
constexpr std::size_t kLayouts = 4;
constexpr std::size_t kMaxDictionary = 256;

/// Numbers distinct words in order of first appearance: an open-addressed
/// table with room for one word more than the largest dictionary.
class WordTable {
 public:
  /// Frees the slots in use: one store per word, not per slot, so a
  /// short column costs what it holds.
  void clear() noexcept {
    for (std::size_t k = 0; k < size_; ++k) used_[slot_of_[k]] = 0;
    size_ = 0;
  }
  /// The word's number; a new word gets the next one. At most
  /// kMaxDictionary + 1 words may be inserted between clears.
  std::size_t insert(std::uint64_t word) noexcept {
    std::size_t slot = (word * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits);
    while (used_[slot] != 0) {
      if (words_[slot] == word) return numbers_[slot];
      slot = (slot + 1) & (kSlots - 1);
    }
    used_[slot] = 1;
    words_[slot] = word;
    numbers_[slot] = static_cast<std::uint16_t>(size_);
    by_number_[size_] = word;
    slot_of_[size_] = static_cast<std::uint16_t>(slot);
    return size_++;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t word(std::size_t number) const noexcept {
    return by_number_[number];
  }

 private:
  static constexpr unsigned kSlotBits = 10;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  // Only used_ starts zeroed: every other slot is written before it is
  // read.
  std::array<std::uint8_t, kSlots> used_{};
  std::array<std::uint64_t, kSlots> words_;
  std::array<std::uint16_t, kSlots> numbers_;
  std::array<std::uint64_t, kMaxDictionary + 1> by_number_;
  std::array<std::uint16_t, kMaxDictionary + 1> slot_of_;
  std::size_t size_ = 0;
};

/// The layout the encoder writes `words` in: the smallest, the lowest tag
/// on a tie. Leaves the column's distinct words (up to one more than a
/// dictionary holds) numbered in `table`.
Layout choose_layout(std::span<const std::uint64_t> words, WordTable& table) {
  const std::size_t n = words.size();
  // Two passes: a branch-free run count, then the run heads into the
  // table (a word's first appearance always starts a run) until a
  // dictionary is out of reach — after 257 rows of a raw column.
  std::size_t runs = n > 0 ? 1 : 0;
  for (std::size_t i = 1; i < n; ++i) {
    runs += words[i] != words[i - 1] ? 1 : 0;
  }
  table.clear();
  for (std::size_t i = 0; i < n && table.size() <= kMaxDictionary; ++i) {
    if (i == 0 || words[i] != words[i - 1]) (void)table.insert(words[i]);
  }
  const std::size_t distinct = table.size();
  const std::array<std::size_t, kLayouts> sizes = {
      8 * n, 4 + 12 * runs, (n + 7) / 8 + 8 * runs,
      n > 0 && distinct <= kMaxDictionary
          ? 1 + 8 * distinct + n
          : std::numeric_limits<std::size_t>::max()};
  std::size_t best = 0;
  for (std::size_t layout = 1; layout < kLayouts; ++layout) {
    if (sizes[layout] < sizes[best]) best = layout;
  }
  return static_cast<Layout>(best);
}

void write_words(ByteWriter& out, std::span<const std::uint64_t> words) {
  if (words.empty()) return;  // an empty span's data() may be null
  if constexpr (std::endian::native == std::endian::little) {
    out.raw(words.data(), words.size() * sizeof(std::uint64_t));
  } else {
    for (const std::uint64_t word : words) out.u64(word);
  }
}

void read_words(ByteReader& in, std::span<std::uint64_t> words) {
  const std::string_view bytes = in.bytes(words.size() * 8);
  if (bytes.empty()) return;  // an empty span's data() may be null
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(words.data(), bytes.data(), bytes.size());
  } else {
    ByteReader each(bytes);
    for (std::uint64_t& word : words) word = each.u64();
  }
}

void write_column(ByteWriter& out, std::span<const std::uint64_t> words,
                  WordTable& table) {
  const std::size_t n = words.size();
  const Layout layout = choose_layout(words, table);
  out.u8(static_cast<std::uint8_t>(layout));
  switch (layout) {
    case Layout::kRaw:
      write_words(out, words);
      break;
    case Layout::kRuns: {
      std::uint32_t runs = 0;
      for (std::size_t i = 0; i < n; ++i) {
        runs += (i == 0 || words[i] != words[i - 1]) ? 1 : 0;
      }
      out.u32(runs);
      for (std::size_t begin = 0; begin < n;) {
        std::size_t end = begin + 1;
        while (end < n && words[end] == words[begin]) ++end;
        out.u64(words[begin]);
        out.u32(static_cast<std::uint32_t>(end - begin));
        begin = end;
      }
      break;
    }
    case Layout::kRepeat: {
      std::string bitmap((n + 7) / 8, '\0');
      for (std::size_t i = 1; i < n; ++i) {
        if (words[i] == words[i - 1]) {
          bitmap[i / 8] = static_cast<char>(bitmap[i / 8] | (1 << (i % 8)));
        }
      }
      out.raw(bitmap.data(), bitmap.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (i == 0 || words[i] != words[i - 1]) out.u64(words[i]);
      }
      break;
    }
    case Layout::kDict: {
      // choose_layout numbered every distinct word in first-appearance
      // order; a lookup returns the number without inserting.
      out.u8(static_cast<std::uint8_t>(table.size() - 1));
      for (std::size_t k = 0; k < table.size(); ++k) out.u64(table.word(k));
      std::string indices(n, '\0');
      for (std::size_t i = 0; i < n; ++i) {
        indices[i] = static_cast<char>(table.insert(words[i]));
      }
      out.raw(indices.data(), indices.size());
      break;
    }
  }
}

/// Reads one column of words.size() rows, rejecting every encoding
/// write_column would not have produced.
void read_column(ByteReader& in, std::span<std::uint64_t> words,
                 WordTable& table) {
  const std::size_t n = words.size();
  const std::uint8_t tag = in.u8();
  switch (static_cast<Layout>(tag)) {
    case Layout::kRaw:
      read_words(in, words);
      break;
    case Layout::kRuns: {
      const std::uint32_t runs = in.u32();
      std::size_t row = 0;
      for (std::uint32_t r = 0; r < runs; ++r) {
        const std::uint64_t word = in.u64();
        const std::uint32_t length = in.u32();
        if (length == 0 || length > n - row) {
          throw SerializeError("deserialize: column run longer than the panel");
        }
        if (row > 0 && word == words[row - 1]) {
          throw SerializeError("deserialize: column run not maximal");
        }
        std::fill_n(words.begin() + static_cast<std::ptrdiff_t>(row), length,
                    word);
        row += length;
      }
      if (row != n) {
        throw SerializeError("deserialize: column runs short of the panel");
      }
      break;
    }
    case Layout::kRepeat: {
      const std::string_view bitmap = in.bytes((n + 7) / 8);
      for (std::size_t i = 0; i < n; ++i) {
        const bool repeat =
            ((static_cast<unsigned char>(bitmap[i / 8]) >> (i % 8)) & 1) != 0;
        if (repeat && i == 0) {
          throw SerializeError("deserialize: first row marked as a repeat");
        }
        if (repeat) {
          words[i] = words[i - 1];
          continue;
        }
        words[i] = in.u64();
        if (i > 0 && words[i] == words[i - 1]) {
          throw SerializeError("deserialize: unmarked repeated row");
        }
      }
      if (n % 8 != 0 &&
          (static_cast<unsigned char>(bitmap.back()) >> (n % 8)) != 0) {
        throw SerializeError("deserialize: stray repeat bitmap bits");
      }
      break;
    }
    case Layout::kDict: {
      if (n == 0) {
        throw SerializeError("deserialize: dictionary for an empty column");
      }
      const std::size_t size = std::size_t{in.u8()} + 1;
      std::array<std::uint64_t, kMaxDictionary> entries;
      read_words(in, std::span(entries.data(), size));
      table.clear();
      for (std::size_t k = 0; k < size; ++k) {
        if (table.insert(entries[k]) != k) {
          throw SerializeError("deserialize: repeated dictionary entry");
        }
      }
      const std::string_view indices = in.bytes(n);
      std::size_t seen = 0;  // entries used so far, in order
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t index = static_cast<unsigned char>(indices[i]);
        if (index >= size) {
          throw SerializeError("deserialize: dictionary index out of range");
        }
        if (index > seen) {
          throw SerializeError("deserialize: dictionary out of order");
        }
        seen += index == seen ? 1 : 0;
        words[i] = entries[index];
      }
      if (seen != size) {
        throw SerializeError("deserialize: unused dictionary entry");
      }
      break;
    }
    default:
      throw SerializeError("deserialize: unknown column layout " +
                           std::to_string(tag));
  }
  if (choose_layout(words, table) != static_cast<Layout>(tag)) {
    throw SerializeError("deserialize: column not in its smallest layout");
  }
}

/// Calls visit(column) for every stored field of a Row (a PanelPoint or a
/// Solution), in column order.
template <class Row, class Visit>
void for_each_field(Visit&& visit) {
  if constexpr (std::is_same_v<Row, core::PanelPoint>) {
    for_each_point_field(visit);
  } else {
    for_each_solution_field(visit);
  }
}

// A column at a time, through one scratch column: a matrix of every
// column, gathered or scattered in one row-major pass, measured slower to
// decode (it writes and rereads 45 words a row) and holds 3.6 MB per
// 10001-point panel in flight on each thread.

template <class Row>
void encode_rows(ByteWriter& out, std::span<const Row> rows) {
  std::vector<std::uint64_t> words(rows.size());
  WordTable table;
  for_each_field<Row>([&](auto column) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      words[i] = column.get(rows[i]);
    }
    write_column(out, words, table);
  });
}

template <class Row>
void decode_rows(ByteReader& in, std::span<Row> rows) {
  std::vector<std::uint64_t> words(rows.size());
  WordTable table;
  bool valid = true;
  for_each_field<Row>([&](auto column) {
    read_column(in, words, table);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      valid &= column.put(rows[i], words[i]);
    }
  });
  if (!valid) {
    throw SerializeError(
        "deserialize: column value out of its field's range, or set on the "
        "payload its row does not hold");
  }
}

void start_entry(ByteWriter& out, PayloadKind kind) {
  out.raw(kMagic, sizeof(kMagic));
  out.u32(kFormatVersion);
  out.u8(static_cast<std::uint8_t>(kind));
}

std::string finish_entry(ByteWriter&& out) {
  out.u64(lane_hash64(out.bytes()));
  return out.take();
}

/// Checks an entry's size, magic and format version (not its checksum)
/// and returns its payload kind.
PayloadKind entry_kind(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    throw SerializeError("deserialize: entry shorter than header");
  }
  ByteReader header(bytes);
  if (header.bytes(sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    throw SerializeError("deserialize: bad magic (not a rexspeed entry)");
  }
  if (const std::uint32_t version = header.u32(); version != kFormatVersion) {
    throw SerializeError("deserialize: unsupported entry format version " +
                         std::to_string(version));
  }
  const std::uint8_t kind = header.u8();
  if (kind > 1) {
    throw SerializeError("deserialize: malformed payload kind");
  }
  return static_cast<PayloadKind>(kind);
}

/// A reader over the payload of an entry of the `expected` kind.
ByteReader open_entry(std::string_view bytes, PayloadKind expected) {
  if (entry_kind(bytes) != expected) {
    throw SerializeError("deserialize: unexpected payload kind");
  }
  return ByteReader(
      bytes.substr(kHeaderSize, bytes.size() - kHeaderSize - kTrailerSize));
}

}  // namespace

std::string encode_panel_entry(const sweep::PanelSeries& series) {
  ByteWriter out;
  start_entry(out, PayloadKind::kPanelSeries);
  write_panel_header(out, series);
  encode_rows(out, std::span<const core::PanelPoint>(series.points));
  return finish_entry(std::move(out));
}

sweep::PanelSeries decode_panel_entry(std::string_view blob,
                                      std::size_t points) {
  ByteReader in = open_entry(blob, PayloadKind::kPanelSeries);
  sweep::PanelSeries series;
  const std::uint32_t count = read_panel_header(in, series);
  if (count != points) {
    throw SerializeError("deserialize: panel of " + std::to_string(count) +
                         " points, expected " + std::to_string(points));
  }
  series.points.resize(count);
  decode_rows(in, std::span<core::PanelPoint>(series.points));
  in.expect_end();
  return series;
}

std::string encode_solution_entry(const core::Solution& solution) {
  ByteWriter out;
  start_entry(out, PayloadKind::kSolution);
  encode_rows(out, std::span<const core::Solution>(&solution, 1));
  return finish_entry(std::move(out));
}

core::Solution decode_solution_entry(std::string_view blob) {
  ByteReader in = open_entry(blob, PayloadKind::kSolution);
  core::Solution solution;
  decode_rows(in, std::span<core::Solution>(&solution, 1));
  in.expect_end();
  return solution;
}

BlobEnvelope check_envelope(std::string_view bytes) {
  // The header first: an entry of another format is rejected before its
  // bytes are hashed.
  const PayloadKind kind = entry_kind(bytes);
  const std::uint64_t checksum =
      lane_hash64(bytes.data(), bytes.size() - kTrailerSize);
  if (stored_checksum(bytes) != checksum) {
    throw SerializeError("deserialize: checksum mismatch (corrupt entry)");
  }
  return {kind, checksum};
}

std::uint64_t stored_checksum(std::string_view bytes) noexcept {
  if (bytes.size() < kTrailerSize) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kTrailerSize; ++i) {
    value |= std::uint64_t{static_cast<std::uint8_t>(
                 bytes[bytes.size() - kTrailerSize + i])}
             << (8 * i);
  }
  return value;
}

std::size_t canonical_size(const core::Solution&) {
  return kHeaderSize + kSolutionBytes + kTrailerSize;
}

std::size_t canonical_size(const sweep::PanelSeries& series) {
  return kHeaderSize + 4 + 4 + series.configuration.size() + 8 + 1 + 4 + 4 +
         series.points.size() * kPointBytes + kTrailerSize;
}

}  // namespace rexspeed::store
