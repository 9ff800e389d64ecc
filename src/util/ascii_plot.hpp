// ASCII renderings of the paper's figure types, so each figure bench can
// print a curve a human can compare against the paper at a glance:
//   - CDF / line plots  (Figures 3, 4, 6, 8, 13, 14, ...)
//   - event timelines   (Figure 15 packet patterns)
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace mn {

struct Series {
  std::string name;
  std::vector<std::pair<double, double>> points;  // (x, y)
};

struct PlotOptions {
  std::string x_label = "x";
  std::string y_label = "y";
  // If set, clamp the x-axis; otherwise autoscale to the data.
  bool fix_x = false;
  double x_min = 0.0;
  double x_max = 1.0;
  bool fix_y = false;
  double y_min = 0.0;
  double y_max = 1.0;
};

/// Render one or more series on a shared axis grid.  Each series is drawn
/// with its own glyph and listed in a legend below the plot.
[[nodiscard]] std::string render_plot(const std::vector<Series>& series,
                                      const PlotOptions& options);

/// Render a Figure-15-style packet timeline: one lane per label, a tick
/// per event time.
[[nodiscard]] std::string render_timeline(
    const std::vector<std::pair<std::string, std::vector<double>>>& lanes,
    double t_max_seconds, int width = 90);

}  // namespace mn
