#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace rexspeed::sweep {
class Series;
struct PanelSeries;
}  // namespace rexspeed::sweep

namespace rexspeed::io {

/// THE number formatter of every CSV and gnuplot export: appends `value`
/// as std::to_chars(general, precision 10) writes it, which is byte for
/// byte what printf's %g conversion prints at precision 10 (NaN as
/// "nan"/"-nan", infinities as "inf"/"-inf"), without the printf
/// machinery or locale lookups. tests/properties/prop_number_format
/// holds it to that identity.
void append_number(std::string& out, double value);

/// Formats the bodies of a panel's .dat and .csv exports in one pass:
/// each cell is formatted once and its digits go to both texts (the .dat
/// writes gnuplot's missing-data marker "?" for a non-finite cell, the
/// .csv the digits). Either output may be null to skip that text; the
/// texts are appended to.
void format_series_text(const sweep::Series& series, std::string* dat,
                        std::string* csv);

/// Writes `bytes` to `path` (created or truncated) with one open, a
/// write loop that resumes after short writes, and one close. False
/// when any of them fails — a full disk or a failing close included.
[[nodiscard]] bool write_file(const std::string& path,
                              std::string_view bytes);

/// Exports one panel as <out_dir>/<stem>.{dat,gp,csv} (stem as in
/// io::figure_file_stem), formatting every cell once for both data
/// files. Byte-identical to export_gnuplot_figure followed by
/// export_csv_figure. Returns the stem, or nullopt when any file could
/// not be written.
std::optional<std::string> export_figure(const sweep::PanelSeries& panel,
                                         const std::string& out_dir);

}  // namespace rexspeed::io
