#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace rexspeed::sweep {
class Series;
struct PanelSeries;
}  // namespace rexspeed::sweep

namespace rexspeed::io {

/// Minimal RFC-4180-style CSV writer (quotes cells containing commas,
/// quotes or newlines; doubles embedded quotes). Used to dump figure data
/// for external plotting.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_row(const std::vector<std::string>& cells);
  /// Numbers as io::append_number prints them.
  void write_row(const std::vector<double>& values);

  [[nodiscard]] static std::string escape(const std::string& cell);

 private:
  std::ostream& os_;
};

/// Writes a flattened figure panel (see sweep::to_series) as a CSV table:
/// a header row (x name + column names) then one row per grid point.
void write_csv_series(std::ostream& os, const sweep::Series& series);

/// Exports a panel as <out_dir>/<stem>.csv (same stem as the gnuplot
/// export, see io::figure_file_stem). Returns the stem on success, nullopt
/// when out_dir is not writable. Defined with the other export steps in
/// figure_export.cpp.
std::optional<std::string> export_csv_figure(
    const sweep::PanelSeries& series, const std::string& out_dir);

}  // namespace rexspeed::io
