// Regenerates Figure 12: the Figure-11 experiment at a location where
// WiFi is faster than LTE; now MPTCP(WiFi) leads and the ratio is below
// one for small flows.
#include <iostream>

#include "common.hpp"
#include "util/units.hpp"
#include "core/experiment.hpp"
#include "measure/locations20.hpp"

int main() {
  using namespace mn;
  bench::print_header("Figure 12", "Throughput and ratio vs flow size (WiFi faster)");
  bench::print_paper(
      "absolute WiFi-LTE difference grows with flow size; the relative "
      "gap (ratio far from 1) is largest for small flows.");

  const auto setup = location_setup(table2_locations()[18], /*seed=*/5);  // WiFi 16/LTE 5
  std::vector<std::int64_t> sizes;
  for (std::int64_t kb = 50; kb <= 1000; kb += 50) sizes.push_back(kb * kKB);

  const auto lte_points = sweep_flow_sizes(
      setup, TransportConfig::mptcp(PathId::kLte, CcAlgo::kDecoupled), sizes);
  const auto wifi_points = sweep_flow_sizes(
      setup, TransportConfig::mptcp(PathId::kWifi, CcAlgo::kDecoupled), sizes);

  Series lte_s{"MPTCP(LTE)", {}};
  Series wifi_s{"MPTCP(WiFi)", {}};
  Series ratio_s{"ratio", {}};
  Table t{{"Flow size (KB)", "MPTCP(LTE) mbps", "MPTCP(WiFi) mbps", "abs diff", "ratio"}};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double kb = static_cast<double>(sizes[i]) / kKB;
    const double l = lte_points[i].throughput_mbps;
    const double w = wifi_points[i].throughput_mbps;
    lte_s.points.emplace_back(kb, l);
    wifi_s.points.emplace_back(kb, w);
    const double ratio = w > 0 ? l / w : 0.0;
    ratio_s.points.emplace_back(kb, ratio);
    if (i % 4 == 0 || i + 1 == sizes.size()) {
      t.add_row({Table::num(kb, 0), Table::num(l, 2), Table::num(w, 2),
                 Table::num(w - l, 2), Table::num(ratio, 2)});
    }
  }

  PlotOptions plot;
  plot.x_label = "Flow size (KB)";
  plot.y_label = "Tput (mbps)";
  std::cout << "\n(a) Absolute throughput\n" << render_plot({lte_s, wifi_s}, plot);
  plot.y_label = "Ratio";
  std::cout << "\n(b) Throughput ratio MPTCP(LTE)/MPTCP(WiFi)\n"
            << render_plot({ratio_s}, plot);
  t.print(std::cout);

  const double small_dev = std::abs(1.0 - ratio_s.points[1].second);
  const double big_dev = std::abs(1.0 - ratio_s.points.back().second);
  bench::print_measured("|1-ratio| at 100 KB " + Table::num(small_dev, 2) + " vs 1 MB " +
                        Table::num(big_dev, 2) + " -> " +
                        (small_dev > big_dev ? "relative gap largest for small flows"
                                             : "shape differs from paper"));
  return 0;
}
