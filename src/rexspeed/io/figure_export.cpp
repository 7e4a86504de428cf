// Every figure file export: the number formatter, the shared .dat/.csv
// formatting pass, the one-write file helper, and the export steps —
// export_figure plus the export_gnuplot_figure / export_csv_figure
// overloads declared in gnuplot_writer.hpp and csv_writer.hpp.

#include "rexspeed/io/figure_export.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "rexspeed/io/csv_writer.hpp"
#include "rexspeed/io/gnuplot_writer.hpp"

namespace rexspeed::io {

namespace {

/// Room for the longest text, e.g. "-1.234567891e-308" (17 chars).
constexpr std::size_t kNumberChars = 32;

/// Writes the digits of `value` at `out`; returns how many.
std::size_t format_number(char* out, double value) {
  return static_cast<std::size_t>(
      std::to_chars(out, out + kNumberChars, value,
                    std::chars_format::general, 10)
          .ptr -
      out);
}

}  // namespace

void append_number(std::string& out, double value) {
  char digits[kNumberChars] = {};
  out.append(digits, format_number(digits, value));
}

void format_series_text(const sweep::Series& series, std::string* dat,
                        std::string* csv) {
  const std::vector<std::string>& names = series.column_names();
  if (dat != nullptr) {
    *dat += "# ";
    *dat += series.x_name();
    for (const std::string& name : names) {
      *dat += ' ';
      *dat += name;
    }
    *dat += '\n';
  }
  if (csv != nullptr) {
    *csv += CsvWriter::escape(series.x_name());
    for (const std::string& name : names) {
      *csv += ',';
      *csv += CsvWriter::escape(name);
    }
    *csv += '\n';
  }

  std::vector<const double*> columns{series.x().data()};
  for (std::size_t c = 0; c < names.size(); ++c) {
    columns.push_back(series.column(c).data());
  }
  // Most cells print in about a dozen characters; growth covers the rest.
  const std::size_t estimate = series.size() * columns.size() * 14;
  if (dat != nullptr) dat->reserve(dat->size() + estimate);
  if (csv != nullptr) csv->reserve(csv->size() + estimate);

  // Each column's previous cell. About half of all exported cells repeat
  // the value above them (speeds, segment counts, infeasible runs), so
  // equal bits reuse the digits instead of formatting them again.
  struct Cell {
    std::uint64_t bits = 0;
    std::size_t length = 0;  // 0 until the column's first cell
    char digits[kNumberChars] = {};
  };
  std::vector<Cell> previous(columns.size());
  for (std::size_t row = 0; row < series.size(); ++row) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const double value = columns[c][row];
      Cell& cell = previous[c];
      const auto bits = std::bit_cast<std::uint64_t>(value);
      if (cell.length == 0 || cell.bits != bits) {
        cell.bits = bits;
        cell.length = format_number(cell.digits, value);
      }
      if (csv != nullptr) {
        if (c != 0) *csv += ',';
        csv->append(cell.digits, cell.length);
      }
      if (dat != nullptr) {
        if (c != 0) *dat += ' ';
        if (std::isfinite(value)) {
          dat->append(cell.digits, cell.length);
        } else {
          *dat += '?';
        }
      }
    }
    if (csv != nullptr) *csv += '\n';
    if (dat != nullptr) *dat += '\n';
  }
}

bool write_file(const std::string& path, std::string_view bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  bool ok = true;
  while (!bytes.empty()) {
    const ssize_t written = ::write(fd, bytes.data(), bytes.size());
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) {
      ok = false;
      break;
    }
    bytes.remove_prefix(static_cast<std::size_t>(written));
  }
  // close() reports deferred write errors (NFS, quota) — a failure here
  // is a lost file too.
  if (::close(fd) != 0) ok = false;
  return ok;
}

namespace {

enum class Files { kGnuplot, kCsv, kAll };

/// The one export step: formats `flat` once, then writes the .dat and
/// .gp pair and/or the .csv, each with a single write.
std::optional<std::string> export_files(const std::string& stem,
                                        const sweep::Series& flat,
                                        const std::string& out_dir,
                                        bool logscale_x, Files files) {
  const bool gnuplot = files != Files::kCsv;
  const bool csv = files != Files::kGnuplot;
  std::string dat_text;
  std::string csv_text;
  format_series_text(flat, gnuplot ? &dat_text : nullptr,
                     csv ? &csv_text : nullptr);
  const std::string base = out_dir + "/" + stem;
  if (gnuplot) {
    std::ostringstream script;
    write_gnuplot_script(script, flat, stem + ".dat", logscale_x);
    if (!write_file(base + ".dat", dat_text) ||
        !write_file(base + ".gp", script.view())) {
      return std::nullopt;
    }
  }
  if (csv && !write_file(base + ".csv", csv_text)) return std::nullopt;
  return stem;
}

/// Pair panels over λ plot on a log x axis; nothing else does.
bool uses_logscale_x(const sweep::PanelSeries& panel) {
  return panel.kind == core::SolutionKind::kPair &&
         panel.parameter == sweep::SweepParameter::kErrorRate;
}

}  // namespace

std::optional<std::string> export_figure(const sweep::PanelSeries& panel,
                                         const std::string& out_dir) {
  return export_files(figure_file_stem(panel), sweep::to_series(panel),
                      out_dir, uses_logscale_x(panel), Files::kAll);
}

std::optional<std::string> export_gnuplot_figure(
    const sweep::PanelSeries& series, const std::string& out_dir) {
  return export_files(figure_file_stem(series), sweep::to_series(series),
                      out_dir, uses_logscale_x(series), Files::kGnuplot);
}

std::optional<std::string> export_csv_figure(
    const sweep::PanelSeries& series, const std::string& out_dir) {
  return export_files(figure_file_stem(series), sweep::to_series(series),
                      out_dir, false, Files::kCsv);
}

}  // namespace rexspeed::io
