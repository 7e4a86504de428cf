// The per-panel export step and its one-write file helper:
//
//   - format_series_text shares each cell's digits between the .dat and
//     the .csv (the .dat marks non-finite cells "?");
//   - export_figure writes the same bytes as export_gnuplot_figure plus
//     export_csv_figure, for pair and interleaved panels alike;
//   - write_file writes exactly the bytes given, truncating, and reports
//     a failed write (a full device) and a failed open (a missing
//     directory, through export_figure).

#include "rexspeed/io/figure_export.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "rexspeed/engine/campaign_runner.hpp"
#include "rexspeed/engine/scenario.hpp"
#include "rexspeed/io/csv_writer.hpp"
#include "rexspeed/io/gnuplot_writer.hpp"
#include "rexspeed/sweep/series.hpp"

namespace rexspeed::io {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class FigureExport : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = fs::temp_directory_path() /
            ("rexspeed_figure_export_" + std::to_string(::getpid()));
    fs::remove_all(work_);
    fs::create_directories(work_);
  }
  void TearDown() override { fs::remove_all(work_); }

  fs::path work_;
};

TEST(FormatSeriesText, SharesTheDigitsAndMarksNonFiniteCellsInTheDat) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  sweep::Series series("rho", {"a", "b,c"});
  // Repeated cells reuse the digits above them; -0 and 0 compare equal
  // but must not share digits.
  series.add_row(1.5, {std::numeric_limits<double>::quiet_NaN(), -0.0});
  series.add_row(1e-5, {-kInf, 0.0});
  series.add_row(1e-5, {-kInf, 123456789012.0});
  std::string dat;
  std::string csv;
  format_series_text(series, &dat, &csv);
  EXPECT_EQ(dat,
            "# rho a b,c\n"
            "1.5 ? -0\n"
            "1e-05 ? 0\n"
            "1e-05 ? 1.23456789e+11\n");
  EXPECT_EQ(csv,
            "rho,a,\"b,c\"\n"
            "1.5,nan,-0\n"
            "1e-05,-inf,0\n"
            "1e-05,-inf,1.23456789e+11\n");

  // Either text alone is byte-identical to its half of the shared pass,
  // and to what the stream writers print.
  std::string dat_only;
  std::string csv_only;
  format_series_text(series, &dat_only, nullptr);
  format_series_text(series, nullptr, &csv_only);
  EXPECT_EQ(dat_only, dat);
  EXPECT_EQ(csv_only, csv);
  std::ostringstream dat_stream;
  std::ostringstream csv_stream;
  write_gnuplot_dat(dat_stream, series);
  write_csv_series(csv_stream, series);
  EXPECT_EQ(dat_stream.str(), dat);
  EXPECT_EQ(csv_stream.str(), csv);
}

TEST_F(FigureExport, OneStepWritesWhatTheTwoExportersWrite) {
  std::vector<engine::ScenarioSpec> specs;
  for (const engine::ScenarioSpec& spec : engine::scenario_registry()) {
    // fig04 sweeps λ (log x axis); the interleaved scenarios cover the
    // other stem and column set.
    if (spec.name == "fig04" || spec.name == "interleaved_rho" ||
        spec.name == "interleaved_segments") {
      specs.push_back(spec);
      specs.back().points = 5;
    }
  }
  ASSERT_EQ(specs.size(), 3u);
  std::vector<engine::ScenarioResult> results =
      engine::CampaignRunner(engine::CampaignRunnerOptions{.threads = 2})
          .run(specs);
  // An infeasible point puts NaN cells in both files.
  results[0].panels[0].points.push_back(core::PanelPoint{});

  const fs::path one = work_ / "one";
  const fs::path two = work_ / "two";
  fs::create_directories(one);
  fs::create_directories(two);
  std::size_t panels = 0;
  for (const engine::ScenarioResult& result : results) {
    for (const sweep::PanelSeries& panel : result.panels) {
      const auto stem = export_figure(panel, one.string());
      ASSERT_TRUE(stem.has_value());
      EXPECT_EQ(*stem, figure_file_stem(panel));
      EXPECT_EQ(export_gnuplot_figure(panel, two.string()), stem);
      EXPECT_EQ(export_csv_figure(panel, two.string()), stem);
      ++panels;
    }
  }
  ASSERT_EQ(panels, 3u);
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(one)) {
    EXPECT_EQ(read_file(entry.path()),
              read_file(two / entry.path().filename()))
        << entry.path().filename();
    ++files;
  }
  EXPECT_EQ(files, 3 * panels);
  EXPECT_NE(read_file(one / "Atlas_Crusoe_lambda.gp").find("set logscale x"),
            std::string::npos);
  EXPECT_NE(read_file(one / "Atlas_Crusoe_lambda.dat").find(" ?"),
            std::string::npos);
}

TEST_F(FigureExport, UnwritableDirectoryFails) {
  std::vector<engine::ScenarioSpec> specs = engine::scenario_registry();
  specs.resize(1);
  specs[0].points = 3;
  const engine::ScenarioResult result =
      engine::CampaignRunner(engine::CampaignRunnerOptions{.threads = 1})
          .run_one(specs[0]);
  ASSERT_FALSE(result.panels.empty());
  EXPECT_FALSE(export_figure(result.panels[0], (work_ / "missing").string())
                   .has_value());
}

TEST_F(FigureExport, WriteFileWritesAndTruncates) {
  const fs::path path = work_ / "blob.txt";
  std::string big(3 << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  ASSERT_TRUE(write_file(path.string(), big));
  EXPECT_EQ(read_file(path), big);
  ASSERT_TRUE(write_file(path.string(), "short"));
  EXPECT_EQ(read_file(path), "short");
}

TEST(WriteFile, FullDeviceFails) {
  // /dev/full accepts the open and fails every write with ENOSPC — the
  // disk-full case the export must not swallow.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  EXPECT_FALSE(write_file("/dev/full", std::string(1 << 16, 'x')));
  EXPECT_FALSE(write_file("/dev/full", "x"));
}

}  // namespace
}  // namespace rexspeed::io
