// Regenerates Figure 9: MPTCP average throughput over time at a location
// where LTE is much faster than WiFi, for both primary-subflow choices.
// The LTE-primary connection ramps faster because its first (and faster)
// subflow carries data from the first RTT.
#include <iostream>

#include "common.hpp"
#include "core/experiment.hpp"
#include "measure/locations20.hpp"
#include "tcp/flow.hpp"

namespace {

using namespace mn;

std::vector<std::pair<double, double>> tput_curve(
    const std::vector<TimelinePoint>& timeline, double t_end_s, double step_s) {
  std::vector<std::pair<double, double>> pts;
  for (double t = step_s; t <= t_end_s + 1e-9; t += step_s) {
    pts.emplace_back(t, timeline_throughput_at(timeline, secs_f(t)));
  }
  return pts;
}

double run_case(const MpNetworkSetup& setup, PathId primary, const char* label) {
  Simulator sim;
  const auto r = run_mptcp_flow(sim, setup, MptcpSpec{primary, CcAlgo::kDecoupled},
                                4'000'000, Direction::kDownload, sec(30));
  std::cout << "\n(" << label << ") primary = " << to_string(primary) << "\n";
  std::vector<Series> series;
  series.push_back({"MPTCP", tput_curve(r.timeline, 2.0, 0.05)});
  for (int sf = 0; sf < 2; ++sf) {
    series.push_back({to_string(r.subflow_paths[static_cast<std::size_t>(sf)]),
                      tput_curve(r.subflow_timelines[static_cast<std::size_t>(sf)], 2.0,
                                 0.05)});
  }
  PlotOptions plot;
  plot.x_label = "Time (s)";
  plot.y_label = "Tput (mbps)";
  plot.fix_x = true;
  plot.x_min = 0.0;
  plot.x_max = 2.0;
  std::cout << render_plot(series, plot);
  const double at2 = timeline_throughput_at(r.timeline, sec(2));
  std::cout << "  MPTCP avg tput at t=2s: " << Table::num(at2, 2) << " mbps\n";
  return at2;
}

}  // namespace

int main() {
  using namespace mn;
  bench::print_header("Figure 9",
                      "MPTCP throughput evolution where LTE is much faster");
  bench::print_paper(
      "with WiFi primary, throughput tracks the slow WiFi subflow until "
      "the LTE join; with LTE primary, it ramps immediately — LTE-primary "
      "reaches a higher average throughput.");

  // LA Airport: WiFi 4 vs LTE 15 Mbit/s.
  const auto setup = location_setup(table2_locations()[16], /*seed=*/4);
  const double wifi_primary = run_case(setup, PathId::kWifi, "a");
  const double lte_primary = run_case(setup, PathId::kLte, "b");

  bench::print_measured("avg tput at 2 s: LTE-primary " + Table::num(lte_primary, 2) +
                        " vs WiFi-primary " + Table::num(wifi_primary, 2) + " mbps -> " +
                        (lte_primary > wifi_primary ? "LTE-primary higher (as in paper)"
                                                    : "UNEXPECTED"));
  return 0;
}
