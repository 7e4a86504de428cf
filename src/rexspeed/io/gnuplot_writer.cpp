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

std::string figure_file_stem(const sweep::PanelSeries& series) {
  std::string stem = series.configuration;
  for (auto& ch : stem) {
    if (ch == '/') ch = '_';
  }
  stem += series.kind == core::SolutionKind::kPair ? "_" : "_interleaved_";
  return stem + sweep::to_string(series.parameter);
}

}  // namespace rexspeed::io
