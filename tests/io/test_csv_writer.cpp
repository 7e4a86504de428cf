#include "rexspeed/io/csv_writer.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "rexspeed/sweep/panel_sweep.hpp"

namespace rexspeed::io {
namespace {

TEST(CsvWriter, PlainRow) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.write_row(std::vector<std::string>{"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(CsvWriter, NumericRowUsesCompactFormat) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.write_row(std::vector<double>{1.5, 2764.0, 3.38e-6});
  EXPECT_EQ(os.str(), "1.5,2764,3.38e-06\n");
}

TEST(CsvWriter, EscapesCommasAndQuotes) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
}

TEST(CsvWriter, MixedRowsAccumulate) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.write_row(std::vector<std::string>{"x", "value"});
  csv.write_row(std::vector<double>{1.0, 2.0});
  csv.write_row(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(os.str(), "x,value\n1,2\n3,4\n");
}

TEST(CsvWriter, WriteCsvSeriesEmitsHeaderAndOneRowPerPoint) {
  sweep::Series series("rho", {"up", "down"});
  series.add_row(1.0, {10.0, 0.5});
  series.add_row(2.0, {20.0, 0.25});
  std::ostringstream os;
  write_csv_series(os, series);
  EXPECT_EQ(os.str(), "rho,up,down\n1,10,0.5\n2,20,0.25\n");
}

TEST(CsvWriter, ExportCsvFigureSharesTheGnuplotStem) {
  sweep::PanelSeries figure;
  figure.parameter = sweep::SweepParameter::kVerificationTime;
  figure.configuration = "Hera/XScale";
  figure.rho = 3.0;
  figure.points.resize(2);
  figure.points[0].x = 0.0;
  figure.points[1].x = 100.0;

  const auto stem = export_csv_figure(figure, ::testing::TempDir());
  ASSERT_TRUE(stem.has_value());
  EXPECT_EQ(*stem, "Hera_XScale_V");
  std::ifstream in(::testing::TempDir() + "/" + *stem + ".csv");
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "V,sigma1,sigma2,Wopt2,energy2,sigma,Wopt1,energy1,saving");

  EXPECT_FALSE(export_csv_figure(figure, "/nonexistent-dir").has_value());
}

}  // namespace
}  // namespace rexspeed::io
