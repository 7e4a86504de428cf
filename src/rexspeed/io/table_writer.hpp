#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rexspeed::io {

/// Cell of an ASCII table; stored pre-formatted.
using Row = std::vector<std::string>;

/// Aligned plain-text table writer used by the CLI and the examples to
/// print the paper-style tables (§4.2) and figure data. Columns are sized to their
/// widest cell; headers are underlined.
class TableWriter {
 public:
  explicit TableWriter(Row header);

  void add_row(Row row);

  /// Convenience: formats a double with `precision` significant decimals,
  /// trimming trailing zeros; "-" for NaN (the paper's infeasible marker).
  [[nodiscard]] static std::string cell(double value, int precision = 3);

  /// Renders the table to a stream.
  void write(std::ostream& os) const;

  /// Renders to a string.
  [[nodiscard]] std::string str() const;

 private:
  Row header_;
  std::vector<Row> rows_;
};

}  // namespace rexspeed::io
