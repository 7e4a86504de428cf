#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "rexspeed/sweep/panel_sweep.hpp"
#include "rexspeed/sweep/series.hpp"

namespace rexspeed::io {

/// Writes a sweep::Series as a gnuplot-friendly whitespace-separated data
/// block: a commented header line (`# x col1 col2 ...`) followed by one
/// row per grid point. Infinite/NaN cells are emitted as "?" (gnuplot's
/// missing-data marker) so infeasible sweep points leave gaps in the
/// curves, exactly as the paper's figures do.
void write_gnuplot_dat(std::ostream& os, const sweep::Series& series);

/// Companion helper: a minimal gnuplot script plotting every column of
/// `dat_filename` against its first column (logscale x when requested).
/// The figure exports write these next to the .dat files so the paper's
/// figures can be regenerated with a stock gnuplot.
void write_gnuplot_script(std::ostream& os, const sweep::Series& series,
                          const std::string& dat_filename,
                          bool logscale_x = false);

/// "<config>_<param>" with "/" flattened to "_" — the file stem shared by
/// every figure export (gnuplot and CSV), so one panel's artifacts sit
/// next to each other. Interleaved panels get
/// "<config>_interleaved_<param>", so they never collide with the regular
/// panel of the same axis.
[[nodiscard]] std::string figure_file_stem(const sweep::PanelSeries& series);

/// Exports a panel as <out_dir>/<stem>.dat plus a matching .gp script
/// (logscale x for pair panels over λ), so the paper's plots can be
/// regenerated with a stock gnuplot. Returns the file stem on success,
/// nullopt when out_dir is not writable. Used by `rexspeed sweep`;
/// `rexspeed campaign` writes all three files of a panel through
/// io::export_figure (figure_export.hpp, which also defines this).
std::optional<std::string> export_gnuplot_figure(
    const sweep::PanelSeries& series, const std::string& out_dir);

}  // namespace rexspeed::io
