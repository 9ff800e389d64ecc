// The synthetic measurement world standing in for the paper's 750
// crowdsourced users (Section 2, Table 1).
//
// Each Table-1 row becomes a ClusterSpec: a geographic centre plus
// per-technology rate and delay distributions.  The LTE rate
// distribution of each cluster is *calibrated* so that
// P(LTE rate > WiFi rate) matches the row's observed LTE-win
// percentage; since simulated TCP throughput is monotone in link rate
// for the fixed 1 MB transfer, the measured win fraction lands near the
// target after the whole measurement pipeline runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mptcp/mptcp.hpp"
#include "util/geo.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace mn {

/// Log-normal megabits-per-second distribution.
struct RateDist {
  double median_mbps = 10.0;
  double sigma = 0.6;  // log-space std dev

  [[nodiscard]] double sample(Rng& rng) const;
};

/// Log-normal one-way-delay distribution.
struct DelayDist {
  Duration median = msec(15);
  double sigma = 0.4;

  [[nodiscard]] Duration sample(Rng& rng) const;
};

struct ClusterSpec {
  std::string name;
  GeoPoint centre;
  int runs = 0;                 // Table-1 "# of Runs"
  double lte_win_target = 0.0;  // Table-1 "LTE %"

  PerPath<RateDist> rate;
  PerPath<DelayDist> delay;
};

/// The 22 Table-1 clusters, rates calibrated to the per-row LTE-win
/// targets and delays calibrated so ~20% of runs see lower LTE RTT
/// (Figure 4).
[[nodiscard]] std::vector<ClusterSpec> table1_world();

/// Build one calibrated cluster: WiFi median rate `wifi_median_mbps`,
/// and an LTE distribution placed so P(LTE > WiFi) == `lte_win`.
[[nodiscard]] ClusterSpec make_cluster(std::string name, GeoPoint centre, int runs,
                                       double lte_win, double wifi_median_mbps);

}  // namespace mn
