#include "rexspeed/io/csv_writer.hpp"

#include <ostream>

#include "rexspeed/io/figure_export.hpp"

namespace rexspeed::io {

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string escaped = "\"";
  for (const char ch : cell) {
    if (ch == '"') escaped += '"';
    escaped += ch;
  }
  escaped += '"';
  return escaped;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) os_ << ',';
    os_ << escape(cells[i]);
  }
  os_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& values) {
  std::string line;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) line += ',';
    append_number(line, values[i]);
  }
  line += '\n';
  os_ << line;
}

void write_csv_series(std::ostream& os, const sweep::Series& series) {
  std::string text;
  format_series_text(series, nullptr, &text);
  os << text;
}

}  // namespace rexspeed::io
