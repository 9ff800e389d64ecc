// Bulk-flow drivers: run one single-path TCP transfer over a DuplexPath
// and report the paper's flow-level metrics (completion time, average
// throughput since SYN, the client-observed byte timeline), plus the
// ping-RTT measurement used by the Cell vs WiFi app (Figure 4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/path.hpp"
#include "tcp/tcp_endpoint.hpp"

namespace mn {

/// Transfer direction from the client's point of view.
enum class Direction { kUpload, kDownload };

using CcFactory = std::function<std::unique_ptr<CongestionController>()>;

/// The default congestion control (NewReno, as in the paper's kernels).
[[nodiscard]] CcFactory reno_factory();

/// The timeout / stall-limit pair every flow driver takes.
struct FlowLimits {
  Duration timeout = sec(120);
  /// Abort when no progress for this long; a blackholed path otherwise
  /// burns the whole timeout retransmitting into the void.
  Duration stall_limit = sec(30);

  /// The legacy overloads' contract: a wall-clock cap only.  The paper's
  /// scripted failure experiments hold a flow stalled for tens of
  /// seconds on purpose (Figure 15g), so no stall bound.
  void cap_only(Duration cap) { timeout = stall_limit = cap; }
};

/// What every flow driver reports: the paper's flow-level metrics.
struct FlowOutcome {
  bool completed = false;
  /// From the first SYN to the last data byte observed at the client
  /// (delivered for downloads, acked for uploads) — the paper's clock.
  Duration completion_time{0};
  double throughput_mbps = 0.0;
  /// Client-observed cumulative byte timeline (times relative to SYN).
  std::vector<TimelinePoint> timeline;
  /// Longest gap between progress events (bytes moving or state changes).
  Duration max_stall{0};
  /// Why the flow did not complete ("" when it did): "stall: ...",
  /// "timeout", "idle: ..." or "incomplete".
  std::string failure_reason;
};

struct FlowResult : FlowOutcome {
  /// SYN -> SYN-ACK at the client.
  Duration syn_rtt{0};
  std::uint64_t retransmits = 0;
};

/// Knobs for run_bulk_flow beyond the flow itself.
struct BulkFlowOptions : FlowLimits {
  std::uint64_t connection_id = 1;
  /// Observes every packet crossing the *client* side of the path (sent
  /// and received), like NetworkInterface taps on the MPTCP testbed —
  /// the energy model meters real single-path traffic through this
  /// instead of fabricating synthetic activity.
  InterfaceTap client_tap;
};

/// Outcome of run_watched.
struct WatchdogResult {
  bool completed = false;
  /// Longest gap between two progress-signature changes; at most
  /// stall_limit even when the event queue is sparse (60s RTO-backoff
  /// gaps on a blackholed path).
  Duration max_stall{0};
  /// Empty on success; "stall: ...", "timeout" or "idle: ..." otherwise.
  std::string reason;
};

/// The one flow watchdog: step `sim` until `done()`, until `timeout`
/// elapses, or until the driver's progress `signature()` stays unchanged
/// for `stall_limit`.  Both run after every step, hence template
/// parameters.  The watchdog is a simulator event, so the stall bound
/// holds even when the next queued event (a backed-off RTO) is minutes
/// away; its Timer takes a sink, so build it at the same point every run.
template <class Done, class Signature>
[[nodiscard]] WatchdogResult run_watched(Simulator& sim, Duration timeout,
                                         Duration stall_limit, const Done& done,
                                         const Signature& signature) {
  WatchdogResult result;
  const TimePoint deadline = sim.now() + timeout;
  bool stalled = false;
  Timer watchdog{sim, [&stalled] { stalled = true; }};
  watchdog.restart(stall_limit);
  auto last_sig = signature();
  TimePoint last_progress = sim.now();
  while (!done()) {
    if (stalled || sim.now() >= deadline) break;
    if (!sim.step()) break;
    const auto sig = signature();
    if (sig != last_sig) {
      result.max_stall = std::max(result.max_stall, sim.now() - last_progress);
      last_sig = sig;
      last_progress = sim.now();
      watchdog.restart(stall_limit);
    }
  }
  result.max_stall = std::max(result.max_stall, sim.now() - last_progress);

  result.completed = done();
  if (result.completed) return result;
  if (stalled) {
    result.reason = "stall: no progress for " + std::to_string(stall_limit.usec() / 1000) + " ms";
  } else {
    result.reason = sim.now() >= deadline ? "timeout"
                                          : "idle: event queue drained before completion";
  }
  return result;
}

/// `src` with its times made relative to `start` (the first SYN).
[[nodiscard]] std::vector<TimelinePoint> rebase_timeline(const std::vector<TimelinePoint>& src,
                                                         TimePoint start);

/// The one completion rule, on the rebased `out.timeline`: a flow
/// completed at the first point that reached `bytes`; otherwise it reads
/// `timeout`, with the watchdog's reason, or "incomplete" when the run
/// finished short of `bytes`.  Also takes the watchdog's max_stall.
void settle_flow(FlowOutcome& out, std::int64_t bytes, Duration timeout,
                 const WatchdogResult& watch);

/// Average throughput implied by a timeline at time `t` since flow start
/// (the paper's "average throughput from establishment to time t").
[[nodiscard]] double timeline_throughput_at(const std::vector<TimelinePoint>& timeline,
                                            Duration t);

/// Runs one bulk transfer of `bytes` over `path` and returns its result.
/// The simulator is advanced as a side effect (run one flow per Simulator
/// instance, or accept serialized flows).
[[nodiscard]] FlowResult run_bulk_flow(Simulator& sim, DuplexPath& path,
                                       std::int64_t bytes, Direction dir,
                                       const CcFactory& cc_factory,
                                       const BulkFlowOptions& options);

[[nodiscard]] FlowResult run_bulk_flow(Simulator& sim, DuplexPath& path,
                                       std::int64_t bytes, Direction dir,
                                       const CcFactory& cc_factory = reno_factory(),
                                       Duration timeout = sec(120),
                                       std::uint64_t connection_id = 1);

/// Sends `count` sequential ICMP-sized echo exchanges over an idle path
/// and returns the average RTT (the Cell vs WiFi app's 10-ping average).
[[nodiscard]] Duration measure_ping_rtt(Simulator& sim, DuplexPath& path, int count = 10);

}  // namespace mn
