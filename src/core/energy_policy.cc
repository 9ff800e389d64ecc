#include "core/energy_policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace mn {
namespace {

/// Predicted completion seconds for one config (first-order model: the
/// handshake plus size over effective rate; MPTCP's second path joins
/// late and both paths contribute afterwards).
double predict_completion_s(const LinkEstimate& est, const TransportConfig& config,
                            std::int64_t flow_bytes) {
  PerPath<double> rate;
  PerPath<double> rtt;
  for (const PathId p : kPaths) {
    rate[p] = std::max(est.down_mbps[p], 0.05);
    rtt[p] = std::max(est.rtt[p].seconds(), 0.005);
  }
  const double bits = static_cast<double>(flow_bytes) * 8.0;

  auto single = [bits](double mbps, double rtt) {
    // Handshake + slow-start penalty (~2 RTT equivalent) + serialization.
    return 3.0 * rtt + bits / (mbps * 1e6);
  };
  if (config.kind == TransportKind::kSinglePath) {
    return single(rate[config.path], rtt[config.path]);
  }
  const double primary_rate = rate[config.mp.primary];
  const double primary_rtt = rtt[config.mp.primary];
  const double join_s = config.mp.join_delay.seconds() + 2.0 * primary_rtt;
  // Bytes moved before the join on the primary alone:
  const double pre_join_bits = std::min(bits, primary_rate * 1e6 * join_s);
  const double rest = bits - pre_join_bits;
  // Coupled CC is a bit less aggressive in aggregate (RFC 6356 fairness).
  const double agg = std::accumulate(rate.begin(), rate.end(), 0.0) *
                     (config.mp.cc == CcAlgo::kCoupled ? 0.85 : 0.95);
  return 3.0 * primary_rtt + join_s + rest / (agg * 1e6);
}

/// Radio joules for a transfer of `seconds` on one radio, Figure-16
/// parameters: active power for the duration plus one tail.
double radio_joules(const RadioPowerParams& p, double active_seconds) {
  if (active_seconds <= 0.0) return 0.0;
  return p.active_watts * active_seconds + p.tail_watts * p.tail_duration.seconds();
}

}  // namespace

EnergyCostEstimate estimate_energy_cost(const LinkEstimate& est,
                                        const TransportConfig& config,
                                        std::int64_t flow_bytes,
                                        const EnergyPolicyConfig& policy) {
  EnergyCostEstimate out;
  out.completion_s = predict_completion_s(est, config, flow_bytes);
  if (config.kind == TransportKind::kSinglePath) {
    out.radio_joules = radio_joules(power_params(config.path), out.completion_s);
  } else {
    // MPTCP keeps both radios active for the transfer; both pay tails.
    for (const PathId p : kPaths) {
      out.radio_joules += radio_joules(power_params(p), out.completion_s);
    }
  }
  out.total_cost = out.radio_joules + policy.joules_per_second * out.completion_s;
  return out;
}

TransportConfig energy_aware_policy(const LinkEstimate& est, std::int64_t flow_bytes,
                                    const EnergyPolicyConfig& policy) {
  TransportConfig best = always_wifi_policy();
  double best_cost = std::numeric_limits<double>::infinity();
  for (const TransportConfig& config : replay_configs()) {
    if (config.kind == TransportKind::kMptcp && flow_bytes < kShortFlowThreshold) {
      continue;  // Section 3.3: MPTCP cannot pay for itself on short flows
    }
    const auto cost = estimate_energy_cost(est, config, flow_bytes, policy);
    if (cost.total_cost < best_cost) {
      best_cost = cost.total_cost;
      best = config;
    }
  }
  return best;
}

}  // namespace mn
