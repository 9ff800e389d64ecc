// MPTCP configuration types (paper Section 3 terminology).
//
// MptcpSpec holds what the paper varies (primary network, congestion
// control, mode, scheduler) plus what fault experiments tighten.  The
// Linux MPTCP v0.88 behaviour the paper measured is fixed: the MP_JOIN
// retry ladder is kJoinMaxAttempts / kJoinRetryBackoff / kJoinTimeout
// below, the subflow RTO floor and start are TcpEndpoint's kMinRto and
// kInitialRto, and kTailBatch's hysteresis thresholds live with the
// scheduler (scheduler.cc).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/time.hpp"

namespace mn {

/// The two access networks of a multi-homed phone.
enum class PathId : int { kWifi = 0, kLte = 1 };

[[nodiscard]] constexpr PathId other_path(PathId p) {
  return p == PathId::kWifi ? PathId::kLte : PathId::kWifi;
}

/// Every PathId in index order: loops over the networks use this.
inline constexpr std::array<PathId, 2> kPaths{PathId::kWifi, PathId::kLte};

/// One value per network, indexed by PathId.  Whatever the pipeline
/// keeps once per network lives in one of these, so code loops over
/// kPaths instead of spelling out a WiFi twin and an LTE twin.
template <class T>
struct PerPath {
  std::array<T, kPaths.size()> values{};

  [[nodiscard]] constexpr T& operator[](PathId p) { return values[static_cast<std::size_t>(p)]; }
  [[nodiscard]] constexpr const T& operator[](PathId p) const {
    return values[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] constexpr auto begin() { return values.begin(); }
  [[nodiscard]] constexpr auto end() { return values.end(); }
  [[nodiscard]] constexpr auto begin() const { return values.begin(); }
  [[nodiscard]] constexpr auto end() const { return values.end(); }
};

[[nodiscard]] inline std::string to_string(PathId p) {
  return p == PathId::kWifi ? "WiFi" : "LTE";
}

/// Lowercase machine name ("wifi" / "lte"): interface names, CSV
/// columns and the serialized FaultPlan text.
[[nodiscard]] constexpr std::string_view path_name(PathId p) {
  constexpr PerPath<std::string_view> kNames{"wifi", "lte"};
  return kNames[p];
}

/// Congestion-control coupling across subflows (paper Section 3.5).
enum class CcAlgo {
  kDecoupled,  // independent Reno per subflow
  kCoupled,    // RFC 6356 Linked Increases (LIA)
  kOlia,       // Khalili et al. (the paper's ref [10]) — extension
};

[[nodiscard]] inline std::string to_string(CcAlgo c) {
  switch (c) {
    case CcAlgo::kDecoupled: return "Decoupled";
    case CcAlgo::kCoupled: return "Coupled";
    case CcAlgo::kOlia: return "OLIA";
  }
  return "?";
}

/// Operating mode (paper Sections 3 and 3.6).
enum class MpMode {
  kFull,        // data on all subflows
  kBackup,      // backup subflow does handshake/FIN only, unless failover
  kSinglePath,  // Paasch et al.: open the second subflow only on failure
};

[[nodiscard]] inline std::string to_string(MpMode m) {
  switch (m) {
    case MpMode::kFull: return "Full-MPTCP";
    case MpMode::kBackup: return "Backup";
    case MpMode::kSinglePath: return "Single-Path";
  }
  return "?";
}

/// Which subflow gets data first when several have window space, and
/// how the path manager treats the costly (LTE) radio.  The first two
/// are the kernel schedulers; the last three answer the paper's
/// Section-7 energy question with policies from the eMPTCP literature.
enum class MpScheduler {
  kLowestRtt,   // Linux MPTCP default (what the paper measured)
  kRoundRobin,  // the kernel's alternative scheduler; ablation knob
  kRedundant,   // duplicate every grant on all subflows; first ACK wins
  kEnergyAware, // eMPTCP: delay the LTE subflow until the flow proves big
  kTailBatch,   // coalesce LTE grants so each batch amortises the 15 s tail
};

constexpr int kMpSchedulerCount = 5;

[[nodiscard]] inline std::string to_string(MpScheduler s) {
  switch (s) {
    case MpScheduler::kLowestRtt: return "LowestRTT";
    case MpScheduler::kRoundRobin: return "RoundRobin";
    case MpScheduler::kRedundant: return "Redundant";
    case MpScheduler::kEnergyAware: return "EnergyAware";
    case MpScheduler::kTailBatch: return "TailBatch";
  }
  return "?";
}

/// Inverse of to_string(MpScheduler); nullopt on anything else (the CSV
/// scheduler column round-trips through this).
[[nodiscard]] inline std::optional<MpScheduler> parse_scheduler(std::string_view name) {
  for (int i = 0; i < kMpSchedulerCount; ++i) {
    const auto s = static_cast<MpScheduler>(i);
    if (to_string(s) == name) return s;
  }
  return std::nullopt;
}

/// Connection-level multipath negotiation outcome (middlebox realism).
/// kNegotiating until the primary handshake settles, then:
///   kMultipath       — MP_CAPABLE survived end to end
///   kFallbackTcp     — option stripped/dropped in the handshake, or the
///                      connection degraded to one path mid-flow after
///                      DSS mangling (infinite-map-style fallback)
///   kSubflowRejected — primary negotiated multipath, but every MP_JOIN
///                      attempt was rejected: single-subflow MPTCP
enum class MpNegotiation {
  kNegotiating,
  kMultipath,
  kFallbackTcp,
  kSubflowRejected,
};

[[nodiscard]] inline std::string to_string(MpNegotiation n) {
  switch (n) {
    case MpNegotiation::kNegotiating: return "Negotiating";
    case MpNegotiation::kMultipath: return "Multipath";
    case MpNegotiation::kFallbackTcp: return "Fallback-TCP";
    case MpNegotiation::kSubflowRejected: return "Subflow-Rejected";
  }
  return "?";
}

/// MP_JOIN persistence against middlebox rejection: total connection
/// attempts for subflow 1 (initial + retries), the backoff before each
/// retry (doubled per attempt), and how long one attempt may sit in the
/// handshake before it is declared rejected.  Bounded so no middlebox
/// combination can hang a run — after the last attempt the connection
/// settles at kSubflowRejected and runs single-subflow.
inline constexpr int kJoinMaxAttempts = 3;
inline constexpr Duration kJoinRetryBackoff = msec(500);
inline constexpr Duration kJoinTimeout = sec(3);

struct MptcpSpec {
  /// Network carrying the primary subflow (the paper's central knob).
  PathId primary = PathId::kWifi;
  CcAlgo cc = CcAlgo::kCoupled;
  MpMode mode = MpMode::kFull;
  /// Delay between primary establishment and the MP_JOIN SYN — the
  /// path manager's ADD_ADDR round plus scheduling latency, clearly
  /// visible in the paper's Figures 9-10 subflow ramps.
  Duration join_delay = msec(200);
  /// Data-level receive buffer.  New data may only be scheduled within
  /// this window of the cumulative data-ACK — the mechanism behind the
  /// paper's Figure 7a: with disparate paths, chunks stuck on the slow
  /// subflow block the window and idle the fast one (receive-buffer
  /// head-of-line blocking, a known MPTCP v0.88 pathology).
  std::int64_t receive_window_bytes = 400'000;
  MpScheduler scheduler = MpScheduler::kLowestRtt;
  /// Ablation knobs for the v0.88 window-blocking mitigations
  /// (bench/ablation_mptcp_mechanisms studies them).
  bool opportunistic_reinjection = true;
  bool penalization = true;
  /// Per-subflow retransmission timer ceiling (RFC 6298 / Linux
  /// TCP_RTO_MAX; the floor and initial value are TcpEndpoint's
  /// kMinRto and kInitialRto).  Exposed so fault experiments can
  /// tighten the backoff ceiling: on a blackholed subflow the RTO
  /// doubles per expiry but must never exceed subflow_max_rto.
  Duration subflow_max_rto = sec(60);
  /// kEnergyAware: the LTE subflow is not joined (and gets no fresh
  /// data) until the un-acked backlog reaches this many bytes — flows
  /// that stay below it never wake the LTE radio and never pay its
  /// 15-second tail.  <= 0 disables the gate (always engage).
  std::int64_t energy_engage_bytes = 512'000;
  /// Forwarded to every subflow's TcpConfig: record the per-subflow
  /// acked/delivered timelines.  Leave on for figure benches; turn off
  /// when attaching many agents at once (shared-cell worlds) so
  /// per-connection memory stays bounded.
  bool record_timelines = true;
};

}  // namespace mn
