#include "measure/world.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace mn {

double RateDist::sample(Rng& rng) const {
  const double v = rng.lognormal(std::log(median_mbps), sigma);
  return std::clamp(v, 0.3, 60.0);  // phone-radio plausible range, 2014
}

Duration DelayDist::sample(Rng& rng) const {
  const double ms = rng.lognormal(std::log(median.millis()), sigma);
  return msec(static_cast<std::int64_t>(std::clamp(ms, 2.0, 400.0)));
}

ClusterSpec make_cluster(std::string name, GeoPoint centre, int runs, double lte_win,
                         double wifi_median_mbps) {
  ClusterSpec c;
  c.name = std::move(name);
  c.centre = centre;
  c.runs = runs;
  c.lte_win_target = lte_win;

  RateDist& wifi = c.rate[PathId::kWifi];
  RateDist& lte = c.rate[PathId::kLte];
  wifi.median_mbps = wifi_median_mbps;
  wifi.sigma = 0.6;
  lte.sigma = 0.7;
  // P(LTE > WiFi) for two log-normals = Phi((muL - muW)/sqrt(sL^2+sW^2)).
  // Solve for muL given the target probability (clamped off 0/1 so the
  // quantile exists; a "0%" row just means LTE is reliably slower there).
  const double p = std::clamp(lte_win, 0.02, 0.98);
  const double z = normal_quantile(p);
  const double spread = std::sqrt(wifi.sigma * wifi.sigma + lte.sigma * lte.sigma);
  // TCP-extraction bias: measured end-to-end, TCP pulls a smaller share
  // of a bursty, bufferbloated LTE link's nominal rate than of a WiFi
  // link's.  The factor was calibrated empirically so that a cluster's
  // *measured* LTE-win fraction matches its target (see
  // tests/measure/campaign_test.cc and bench/fig03_tput_cdf).
  // The penalty deepens as LTE carries more of the traffic (faster LTE
  // means deeper queues and burstier service), so the correction grows
  // with the target win probability.
  const double tcp_pipeline_bias = 1.95 + 0.8 * p;
  lte.median_mbps =
      std::clamp(wifi_median_mbps * std::exp(z * spread) * tcp_pipeline_bias, 0.5, 50.0);

  // Delays: WiFi one-way ~16 ms median, LTE ~26 ms, with enough spread
  // that P(LTE RTT < WiFi RTT) lands near Figure 4's 20% after the
  // (LTE-penalizing) serialization delay of the ping itself.
  c.delay = {DelayDist{msec(16), 0.55}, DelayDist{msec(26), 0.55}};
  return c;
}

std::vector<ClusterSpec> table1_world() {
  // Rows exactly as printed in Table 1: name, (lat, long), runs, LTE-win.
  // WiFi medians vary by locale (dense urban/campus WiFi fast, cafes and
  // malls slower) — they set the *scale*; the win target sets LTE's
  // placement relative to WiFi.
  std::vector<ClusterSpec> world;
  world.push_back(make_cluster("US (Boston, MA)", {42.4, -71.1}, 884, 0.10, 15.0));
  world.push_back(make_cluster("Israel", {31.8, 35.0}, 276, 0.55, 8.0));
  world.push_back(make_cluster("US (Portland)", {45.6, -122.7}, 164, 0.45, 10.0));
  world.push_back(make_cluster("Estonia", {59.4, 27.4}, 124, 0.71, 7.0));
  world.push_back(make_cluster("South Korea", {37.5, 126.9}, 108, 0.66, 12.0));
  world.push_back(make_cluster("US (Orlando)", {28.4, -81.4}, 92, 0.35, 9.0));
  world.push_back(make_cluster("US (Miami)", {26.0, -80.2}, 84, 0.52, 8.0));
  world.push_back(make_cluster("Malaysia", {4.24, 103.4}, 76, 0.68, 5.0));
  world.push_back(make_cluster("Brazil", {-23.6, -46.8}, 56, 0.04, 9.0));
  world.push_back(make_cluster("Germany", {52.5, 13.3}, 40, 0.20, 12.0));
  world.push_back(make_cluster("Spain", {28.0, -16.7}, 40, 0.80, 6.0));
  world.push_back(make_cluster("Thailand (Phichit)", {16.1, 100.2}, 40, 0.80, 4.0));
  world.push_back(make_cluster("US (New York)", {40.9, -73.8}, 24, 0.33, 11.0));
  world.push_back(make_cluster("Japan", {36.4, 139.3}, 16, 0.25, 14.0));
  world.push_back(make_cluster("Sweden", {59.6, 18.6}, 16, 0.00, 16.0));
  world.push_back(make_cluster("Thailand (Chiang Mai)", {18.8, 99.0}, 16, 0.75, 5.0));
  world.push_back(make_cluster("US (Chicago)", {42.0, -88.2}, 16, 0.25, 10.0));
  world.push_back(make_cluster("Hungary", {47.4, 16.8}, 8, 0.00, 11.0));
  world.push_back(make_cluster("Italy", {44.2, 8.3}, 8, 0.00, 9.0));
  world.push_back(make_cluster("US (Salt Lake City)", {40.8, -111.9}, 8, 0.00, 13.0));
  world.push_back(make_cluster("Colombia", {7.1, -70.7}, 4, 0.00, 7.0));
  world.push_back(make_cluster("US (Santa Fe)", {35.9, -106.3}, 4, 0.00, 10.0));
  return world;
}

}  // namespace mn
