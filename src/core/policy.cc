#include "core/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace mn {
namespace {

double at(const ConfigTimes& times, const std::string& key) {
  const auto it = times.find(key);
  if (it == times.end()) throw std::out_of_range("missing config time: " + key);
  return it->second;
}

/// The network with the higher measured downlink (WiFi on a tie).
PathId best_path(const LinkEstimate& est) {
  return est.down_mbps[PathId::kWifi] >= est.down_mbps[PathId::kLte] ? PathId::kWifi
                                                                     : PathId::kLte;
}

}  // namespace

TransportConfig always_wifi_policy() {
  return TransportConfig::single_path(PathId::kWifi);
}

TransportConfig best_single_path_policy(const LinkEstimate& est) {
  return TransportConfig::single_path(best_path(est));
}

TransportConfig adaptive_policy(const LinkEstimate& est, std::int64_t flow_bytes,
                                std::int64_t short_flow_threshold,
                                double comparable_ratio) {
  const PathId best = best_path(est);
  if (flow_bytes < short_flow_threshold) {
    return TransportConfig::single_path(best);
  }
  const auto [lo, hi] = std::ranges::minmax(est.down_mbps);
  if (lo <= 0.0 || hi / lo > comparable_ratio) {
    // Figure 7a regime: a large disparity makes MPTCP a loser at any
    // size; the slow link's subflow drags data-level delivery.
    return TransportConfig::single_path(best);
  }
  return TransportConfig::mptcp(best, CcAlgo::kCoupled);
}

OracleReport make_oracle_report(const ConfigTimes& times) {
  OracleReport r;
  const double wifi_tcp = at(times, "WiFi-TCP");
  const double lte_tcp = at(times, "LTE-TCP");
  const double cw = at(times, "MPTCP-Coupled-WiFi");
  const double cl = at(times, "MPTCP-Coupled-LTE");
  const double dw = at(times, "MPTCP-Decoupled-WiFi");
  const double dl = at(times, "MPTCP-Decoupled-LTE");
  r.wifi_tcp = wifi_tcp;
  r.single_path_oracle = std::min(wifi_tcp, lte_tcp);
  r.decoupled_mptcp_oracle = std::min(dw, dl);
  r.coupled_mptcp_oracle = std::min(cw, cl);
  r.wifi_primary_oracle = std::min(cw, dw);
  r.lte_primary_oracle = std::min(cl, dl);
  return r;
}

OracleReport normalize_oracles(const std::vector<OracleReport>& reports) {
  OracleReport n{1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  if (reports.empty()) return n;
  double base = 0.0;
  double sp = 0.0;
  double dec = 0.0;
  double cpl = 0.0;
  double wp = 0.0;
  double lp = 0.0;
  for (const auto& r : reports) {
    base += r.wifi_tcp;
    sp += r.single_path_oracle;
    dec += r.decoupled_mptcp_oracle;
    cpl += r.coupled_mptcp_oracle;
    wp += r.wifi_primary_oracle;
    lp += r.lte_primary_oracle;
  }
  if (base <= 0.0) return n;
  n.wifi_tcp = 1.0;
  n.single_path_oracle = sp / base;
  n.decoupled_mptcp_oracle = dec / base;
  n.coupled_mptcp_oracle = cpl / base;
  n.wifi_primary_oracle = wp / base;
  n.lte_primary_oracle = lp / base;
  return n;
}

}  // namespace mn
