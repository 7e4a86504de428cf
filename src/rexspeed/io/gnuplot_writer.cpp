#include "rexspeed/io/gnuplot_writer.hpp"

#include <ostream>

#include "rexspeed/io/figure_export.hpp"

namespace rexspeed::io {

void write_gnuplot_dat(std::ostream& os, const sweep::Series& series) {
  std::string text;
  format_series_text(series, &text, nullptr);
  os << text;
}

void write_gnuplot_script(std::ostream& os, const sweep::Series& series,
                          const std::string& dat_filename,
                          bool logscale_x) {
  os << "set xlabel '" << series.x_name() << "'\n";
  if (logscale_x) os << "set logscale x\n";
  os << "set key outside\n";
  os << "set datafile missing '?'\n";
  os << "plot";
  for (std::size_t col = 0; col < series.column_names().size(); ++col) {
    if (col != 0) os << ',';
    os << " '" << dat_filename << "' using 1:" << col + 2
       << " with linespoints title '" << series.column_names()[col] << "'";
  }
  os << '\n';
}

namespace {

/// The configuration with "/" flattened to "_", then `infix`, then the
/// axis name.
std::string file_stem(const std::string& configuration, const char* infix,
                      sweep::SweepParameter parameter) {
  std::string stem = configuration;
  for (auto& ch : stem) {
    if (ch == '/') ch = '_';
  }
  return stem + infix + sweep::to_string(parameter);
}

}  // namespace

std::string figure_file_stem(const sweep::FigureSeries& series) {
  return file_stem(series.configuration, "_", series.parameter);
}

std::string figure_file_stem(const sweep::InterleavedSeries& series) {
  return file_stem(series.configuration, "_interleaved_", series.parameter);
}

std::string figure_file_stem(const sweep::PanelSeries& series) {
  return file_stem(series.configuration,
                   series.kind == core::SolutionKind::kPair
                       ? "_"
                       : "_interleaved_",
                   series.parameter);
}

}  // namespace rexspeed::io
