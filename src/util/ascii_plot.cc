#include "util/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace mn {
namespace {

constexpr char kGlyphs[] = {'*', '+', 'o', 'x', '#', '@', '%', '&'};
constexpr int kPlotWidth = 72;   // plot area columns
constexpr int kPlotHeight = 18;  // plot area rows

struct Range {
  double lo = 0.0;
  double hi = 1.0;
  [[nodiscard]] double span() const { return hi - lo; }
};

Range data_range(const std::vector<Series>& series, bool x_axis) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& s : series) {
    for (const auto& [x, y] : s.points) {
      const double v = x_axis ? x : y;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (!std::isfinite(lo)) return {0.0, 1.0};
  if (hi == lo) hi = lo + 1.0;
  return {lo, hi};
}

}  // namespace

std::string render_plot(const std::vector<Series>& series, const PlotOptions& opt) {
  const Range xr = opt.fix_x ? Range{opt.x_min, opt.x_max} : data_range(series, true);
  const Range yr = opt.fix_y ? Range{opt.y_min, opt.y_max} : data_range(series, false);
  const int w = kPlotWidth;
  const int h = kPlotHeight;

  std::vector<std::string> grid(static_cast<std::size_t>(h), std::string(static_cast<std::size_t>(w), ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char glyph = kGlyphs[si % sizeof(kGlyphs)];
    for (const auto& [x, y] : series[si].points) {
      if (x < xr.lo || x > xr.hi || y < yr.lo || y > yr.hi) continue;
      const int cx = static_cast<int>(std::lround((x - xr.lo) / xr.span() * (w - 1)));
      const int cy = static_cast<int>(std::lround((y - yr.lo) / yr.span() * (h - 1)));
      grid[static_cast<std::size_t>(h - 1 - cy)][static_cast<std::size_t>(cx)] = glyph;
    }
  }

  std::ostringstream os;
  os << std::setprecision(3);
  os << "  " << opt.y_label << "\n";
  for (int row = 0; row < h; ++row) {
    const double yv = yr.hi - (yr.hi - yr.lo) * row / (h - 1);
    os << std::setw(9) << yv << " |" << grid[static_cast<std::size_t>(row)] << "\n";
  }
  os << std::string(10, ' ') << '+' << std::string(static_cast<std::size_t>(w), '-') << "\n";
  os << std::setw(10 + 1) << xr.lo << std::string(static_cast<std::size_t>(std::max(1, w - 14)), ' ')
     << xr.hi << "  (" << opt.x_label << ")\n";
  os << "  legend:";
  for (std::size_t si = 0; si < series.size(); ++si) {
    os << "  [" << kGlyphs[si % sizeof(kGlyphs)] << "] " << series[si].name;
  }
  os << "\n";
  return os.str();
}

std::string render_timeline(
    const std::vector<std::pair<std::string, std::vector<double>>>& lanes,
    double t_max_seconds, int width) {
  const int w = std::max(20, width);
  std::size_t label_w = 0;
  for (const auto& [label, _] : lanes) label_w = std::max(label_w, label.size());

  std::ostringstream os;
  for (const auto& [label, events] : lanes) {
    std::string lane(static_cast<std::size_t>(w), '.');
    for (double t : events) {
      if (t < 0.0 || t > t_max_seconds) continue;
      const int cx = static_cast<int>(std::lround(t / t_max_seconds * (w - 1)));
      lane[static_cast<std::size_t>(cx)] = '|';
    }
    os << std::left << std::setw(static_cast<int>(label_w)) << label << " [" << lane << "]\n";
  }
  os << std::left << std::setw(static_cast<int>(label_w)) << "t(s)" << "  0"
     << std::string(static_cast<std::size_t>(w - 6), ' ') << t_max_seconds << "\n";
  return os.str();
}

}  // namespace mn
