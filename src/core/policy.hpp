// Network-selection policies and oracle schemes.
//
// The paper closes by asking how a device should choose between WiFi,
// LTE, and MPTCP.  This header provides:
//   - static policies (Android's always-WiFi default, best-measured),
//   - the adaptive per-flow-size policy the paper's findings motivate
//     (short flow -> best single path; long flow -> MPTCP with the best
//     primary and coupled congestion control),
//   - the five Figure-19/21 oracle schemes, evaluated over measured
//     response times.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace mn {

/// What a policy knows when choosing (recent app-level measurements).
struct LinkEstimate {
  PerPath<double> down_mbps;
  PerPath<Duration> rtt;
};

/// Android default circa the paper: WiFi whenever associated.
[[nodiscard]] TransportConfig always_wifi_policy();

/// Pick the single path with the higher measured throughput.
[[nodiscard]] TransportConfig best_single_path_policy(const LinkEstimate& est);

/// Flow-size boundary below which MPTCP cannot amortize its join, nor
/// pay for the second radio's tail energy (Section 3.3).
inline constexpr std::int64_t kShortFlowThreshold = 100'000;

/// The paper-derived adaptive answer to "WiFi, LTE, or Both?":
///   - flows below `short_flow_threshold` use the best single path
///     (MPTCP cannot amortize its join for short flows — Section 3.3);
///   - longer flows use Full-MPTCP with the faster network as primary
///     and coupled congestion control (Sections 3.4-3.5) — provided the
///     two links are roughly comparable; with a large disparity, MPTCP
///     underperforms the best single path (Figure 7a), so stay single.
[[nodiscard]] TransportConfig adaptive_policy(const LinkEstimate& est,
                                              std::int64_t flow_bytes,
                                              std::int64_t short_flow_threshold = kShortFlowThreshold,
                                              double comparable_ratio = 4.0);

/// Measured outcome of one configuration at one network condition.
using ConfigTimes = std::map<std::string, double>;  // config name -> seconds

/// The Figure-19/21 oracle schemes over a set of measured times.  Every
/// value is the response time the oracle achieves.
struct OracleReport {
  double wifi_tcp = 0.0;                // baseline (Android default)
  double single_path_oracle = 0.0;      // min(WiFi-TCP, LTE-TCP)
  double decoupled_mptcp_oracle = 0.0;  // min over decoupled primaries
  double coupled_mptcp_oracle = 0.0;    // min over coupled primaries
  double wifi_primary_oracle = 0.0;     // min over CC, WiFi primary
  double lte_primary_oracle = 0.0;      // min over CC, LTE primary
};

/// Build the report from measured times for the six replay_configs().
/// Throws std::out_of_range if a config name is missing.
[[nodiscard]] OracleReport make_oracle_report(const ConfigTimes& times);

/// Average multiple reports (per network condition) and normalize by the
/// WiFi-TCP baseline, producing the Figure-19/21 bars: every field of the
/// result is a fraction of WiFi-TCP's time, so wifi_tcp is 1.  With no
/// reports (or no baseline time) every field is 1.
[[nodiscard]] OracleReport normalize_oracles(const std::vector<OracleReport>& reports);

}  // namespace mn
