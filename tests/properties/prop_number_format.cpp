// Property: io::append_number (std::to_chars, general, precision 10) prints
// every double exactly as printf("%.10g") does. Every exported figure
// byte depends on it, so a standard-library change that breaks the
// identity must fail here, by name, not only in the export goldens:
//
//   1. seeded random bit patterns (all exponents, subnormals, NaN
//      payloads of both signs) plus random values straddling the
//      decimal powers where %g rounds up a digit or switches notation;
//   2. the special values: ±0, ±inf, ±NaN, denorm_min, min, max, lowest;
//   3. every decimal power of ten and its neighbours, including the
//      1e-4 and 1e10 thresholds where %.10g switches to exponent form;
//   4. the same random batches through format_series_text, the path the
//      .dat and .csv exports take.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "rexspeed/io/figure_export.hpp"
#include "rexspeed/sweep/series.hpp"
#include "support/proptest.hpp"

namespace rexspeed::io {
namespace {

std::string printf_g10(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

std::string formatted(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

std::string bits_of(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buffer;
}

void expect_printf_identity(double value) {
  EXPECT_EQ(formatted(value), printf_g10(value))
      << "bits " << bits_of(value);
}

/// `steps` ulps above (positive) or below (negative) `value`.
double ulps_away(double value, int steps) {
  const double toward = steps > 0 ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(steps); ++i) {
    value = std::nextafter(value, toward);
  }
  return value;
}

/// A batch of doubles per case, so one case checks many values.
struct DoubleBatchGen {
  using Value = std::vector<double>;
  std::size_t size = 512;

  std::vector<double> operator()(proptest::Rng& rng) const {
    std::vector<double> values;
    values.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      switch (rng.index(4)) {
        case 0:
        case 1:  // any bit pattern at all
          values.push_back(std::bit_cast<double>(rng.next_u64()));
          break;
        case 2: {  // a few ulps from a power of ten, either sign
          const double power =
              std::pow(10.0, static_cast<double>(rng.index(40)) - 20.0);
          const double near = ulps_away(
              power, static_cast<int>(rng.index(9)) - 4);
          values.push_back(rng.chance(0.5) ? near : -near);
          break;
        }
        default: {  // ten nines then a rounding digit: 9.9999999995e±k
          const double scale =
              std::pow(10.0, static_cast<double>(rng.index(30)) - 15.0);
          values.push_back(ulps_away(9.9999999995 * scale,
                                     static_cast<int>(rng.index(5)) - 2));
          break;
        }
      }
    }
    return values;
  }

  /// Halves, so a failure shrinks to the one value that breaks it.
  std::vector<std::vector<double>> shrink(
      const std::vector<double>& values) const {
    if (values.size() < 2) return {};
    const auto middle = values.begin() + values.size() / 2;
    return {std::vector<double>(values.begin(), middle),
            std::vector<double>(middle, values.end())};
  }

  std::string describe(const std::vector<double>& values) const {
    std::string text = std::to_string(values.size());
    text += " values:";
    for (std::size_t i = 0; i < values.size() && i < 8; ++i) {
      text += ' ';
      text += bits_of(values[i]);
    }
    return text;
  }
};

TEST(NumberFormat, MatchesPrintfOnRandomBitPatternsAndThresholds) {
  proptest::check("append_number == %.10g", DoubleBatchGen{},
                  [](const std::vector<double>& values) {
                    for (const double value : values) {
                      ASSERT_EQ(formatted(value), printf_g10(value))
                          << "bits " << bits_of(value);
                    }
                  });
}

TEST(NumberFormat, SeriesTextMatchesPrintfCellByCell) {
  // The export path reuses a column's digits when a cell repeats the one
  // above it; pairs of equal cells in `y` exercise that reuse.
  proptest::check(
      "format_series_text == %.10g cells", DoubleBatchGen{},
      [](const std::vector<double>& values) {
        sweep::Series series("x", {"y"});
        std::string dat = "# x y\n";
        std::string csv = "x,y\n";
        for (std::size_t i = 0; i < values.size(); ++i) {
          const double x = values[i];
          const double y = values[i - i % 2];
          series.add_row(x, {y});
          csv += printf_g10(x) + "," + printf_g10(y) + "\n";
          dat += (std::isfinite(x) ? printf_g10(x) : "?") + " " +
                 (std::isfinite(y) ? printf_g10(y) : "?") + "\n";
        }
        std::string dat_text;
        std::string csv_text;
        format_series_text(series, &dat_text, &csv_text);
        ASSERT_EQ(csv_text, csv);
        ASSERT_EQ(dat_text, dat);
      });
}

TEST(NumberFormat, MatchesPrintfOnSpecialValues) {
  using limits = std::numeric_limits<double>;
  for (const double value :
       {0.0, limits::infinity(), limits::quiet_NaN(), limits::signaling_NaN(),
        std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),
        std::bit_cast<double>(std::uint64_t{0x7ff8dead0000beef}),
        limits::denorm_min(), limits::min(), limits::max(), limits::lowest(),
        limits::epsilon(), 1.0, 0.1, 2764.3, 3.38e-6}) {
    expect_printf_identity(value);
    expect_printf_identity(-value);
  }
  EXPECT_EQ(formatted(-0.0), "-0");
  EXPECT_EQ(formatted(-limits::quiet_NaN()), "-nan");
  EXPECT_EQ(formatted(-limits::infinity()), "-inf");
}

TEST(NumberFormat, MatchesPrintfAroundEveryPowerOfTen) {
  // %.10g prints 1e-05 but 0.0001, 9999999999 but 1e+10: the notation
  // switches at 1e-4 and 1e10, and 9.9999999995eK rounds up across them.
  for (int exponent = -324; exponent <= 308; ++exponent) {
    const double power = std::pow(10.0, exponent);
    for (int steps = -3; steps <= 3; ++steps) {
      expect_printf_identity(ulps_away(power, steps));
      expect_printf_identity(ulps_away(9.9999999995 * power, steps));
      expect_printf_identity(ulps_away(5.0 * power, steps));
    }
  }
  EXPECT_EQ(formatted(1e-4), "0.0001");
  EXPECT_EQ(formatted(1e-5), "1e-05");
  EXPECT_EQ(formatted(9999999999.0), "9999999999");
  EXPECT_EQ(formatted(1e10), "1e+10");
  EXPECT_EQ(formatted(99999999995.0), "1e+11");
}

}  // namespace
}  // namespace rexspeed::io
