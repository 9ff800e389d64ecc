// The simulated counterpart of the paper's Figure-5 measurement setup: a
// multi-homed client (WiFi + tethered LTE) talking to a single-homed
// server at MIT, over two emulated duplex paths.
//
// The testbed wires one MptcpAgent on each end, exposes the two
// client-side NetworkInterfaces for failure injection (soft disable /
// unplug / replug), and records per-interface packet events — the raw
// material of the Figure-15 timelines and the energy model.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "energy/power_model.hpp"
#include "mptcp/mptcp_agent.hpp"
#include "net/path.hpp"
#include "tcp/flow.hpp"

namespace mn {

/// One access network: link parameters for both directions plus its
/// carrier semantics.
struct PathSetup {
  LinkSpec up;
  LinkSpec down;
  /// A locally attached WiFi radio sees carrier loss; the paper's
  /// USB-tethered LTE phone does not (the Figure-15g asymmetry).
  bool reports_carrier_loss = true;
};

/// Both networks of the multi-homed client.
struct MpNetworkSetup {
  PerPath<PathSetup> paths{
      PathSetup{}, PathSetup{.up = {}, .down = {}, .reports_carrier_loss = false}};
};

/// Symmetric convenience constructor: same spec both directions per path.
[[nodiscard]] MpNetworkSetup symmetric_setup(const LinkSpec& wifi, const LinkSpec& lte);

/// The Figure-5 network: per PathId, one emulated DuplexPath to the
/// single-homed server fronted by the client's NetworkInterface (named
/// path_name(p)).  The one place the access networks are wired; both
/// MptcpTestbed and MpShell hold one.  Paths are built before
/// interfaces, each in PathId order: link stages register their
/// simulator sinks in construction order, which fixes dispatch order.
class MpNetwork {
 public:
  MpNetwork(Simulator& sim, const MpNetworkSetup& setup);
  MpNetwork(const MpNetwork&) = delete;
  MpNetwork& operator=(const MpNetwork&) = delete;
  ~MpNetwork();

  [[nodiscard]] DuplexPath& path(PathId p) { return *paths_[p]; }
  [[nodiscard]] NetworkInterface& iface(PathId p) { return *ifaces_[p]; }

  /// Deliver client-bound packets from every interface to `client` and
  /// server-bound packets from every path to `server`.
  template <class Client, class Server>
  void set_receivers(const Client& client, const Server& server) {
    for (const PathId p : kPaths) {
      iface(p).set_receiver(client);
      path(p).set_server_receiver(server);
    }
  }
  /// Batch counterparts: a tick's deliveries arrive as one span.
  template <class Client, class Server>
  void set_batch_receivers(const Client& client, const Server& server) {
    for (const PathId p : kPaths) {
      iface(p).set_receiver_batch(client);
      path(p).set_server_receiver_batch(server);
    }
  }

 private:
  PerPath<std::unique_ptr<DuplexPath>> paths_;
  PerPath<std::unique_ptr<NetworkInterface>> ifaces_;
};

/// One packet crossing a client interface.
struct PacketEvent {
  TimePoint t;
  PacketDir dir = PacketDir::kSent;
  TcpFlags flags;
  std::int64_t payload = 0;
};

class MptcpTestbed {
 public:
  MptcpTestbed(Simulator& sim, const MpNetworkSetup& setup, MptcpSpec spec,
               std::uint64_t connection_id = 1);
  MptcpTestbed(const MptcpTestbed&) = delete;
  MptcpTestbed& operator=(const MptcpTestbed&) = delete;

  [[nodiscard]] MptcpAgent& client() { return *client_; }
  [[nodiscard]] MptcpAgent& server() { return *server_; }
  [[nodiscard]] NetworkInterface& iface(PathId path) { return net_.iface(path); }
  /// The emulated duplex path behind `path` (fault-injection target).
  [[nodiscard]] DuplexPath& path(PathId path) { return net_.path(path); }
  [[nodiscard]] const std::vector<PacketEvent>& events(PathId path) const {
    return events_[path];
  }
  /// First-class radio energy: every packet crossing a client interface
  /// feeds that radio's EnergyMeter (Figure-16 parameters), so per-radio
  /// joules are available on any testbed run without re-deriving them
  /// from the event lists.
  [[nodiscard]] const EnergyMeter& meter(PathId path) const { return meters_[path]; }
  /// Radio energy above base load over [0, horizon], in joules.
  [[nodiscard]] double radio_energy_joules(PathId path, TimePoint horizon) const {
    return meter(path).radio_energy_joules(horizon);
  }

  /// Begin a bulk transfer: server.listen + client.connect + data enqueue.
  void start_transfer(std::int64_t bytes, Direction dir);
  /// Step the simulator until both agents finish or `timeout` elapses,
  /// with no stall bound (the scripted Figure-15g stalls need that).
  /// Returns true when the transfer completed cleanly.  The result must
  /// not be ignored: a timed-out run left the agents mid-flow, and
  /// reading sim.now() as a completion time silently reports the
  /// timeout as the result.  Timeouts count as mptcp.run_timeouts.
  [[nodiscard]] bool run_until_finished(Duration timeout);
  /// Like run_until_finished, but under the one flow watchdog
  /// (run_watched, tcp/flow.hpp): also aborts when progress_signature()
  /// has not changed for `stall_limit` — wall-clock caps alone let a
  /// blackholed flow burn the whole timeout retransmitting into the void.
  [[nodiscard]] WatchdogResult run_with_watchdog(Duration timeout, Duration stall_limit);
  /// The progress signature run_with_watchdog watches: a weighted sum of
  /// the monotone transfer counters on both ends.  Changes iff the flow
  /// made real progress; retransmit/RTO counts are deliberately
  /// excluded (endless retransmission into a blackhole is not progress).
  [[nodiscard]] std::uint64_t progress_signature() const;
  /// Freeze both agents (all subflow timers stopped).  After an aborted
  /// run this lets the simulator drain to an empty queue.
  void shutdown();

 private:
  Simulator& sim_;
  MpNetwork net_;  // built before the agents: sink registration order
  std::unique_ptr<MptcpAgent> client_;
  std::unique_ptr<MptcpAgent> server_;
  PerPath<std::vector<PacketEvent>> events_;
  PerPath<EnergyMeter> meters_;
};

/// Client-observed per-subflow byte timelines (index = subflow id;
/// subflow 0 is on the primary network).
struct SubflowTimelines {
  std::array<std::vector<TimelinePoint>, kPaths.size()> subflow_timelines;
  std::array<PathId, kPaths.size()> subflow_paths{PathId::kWifi, PathId::kLte};
};

/// Result of one MPTCP bulk flow (run_mptcp_flow).  The FlowOutcome
/// timeline is the client-observed MPTCP data-level timeline; its clock
/// runs from the first SYN to all data observed at the client.
struct MptcpFlowResult : FlowOutcome, SubflowTimelines {
  Duration primary_established{0};
  /// How multipath negotiation settled (client view; middlebox realism).
  MpNegotiation negotiation = MpNegotiation::kNegotiating;
  /// MP_CAPABLE survived the primary handshake end to end.
  bool negotiated_mp = false;
  /// A second subflow actually joined — multipath was used, not merely
  /// negotiated (the negotiated-vs-achieved distinction).
  bool achieved_mp = false;
  /// Why multipath degraded ("" when it did not): "capable_stripped",
  /// "syn_dropped", "join_rejected" or "mid_flow_dss".
  std::string fallback_reason;
  /// MP_JOIN connection attempts issued by the client's path manager.
  int join_attempts = 0;
  /// Which data-level scheduler policy the flow ran under.
  MpScheduler scheduler = MpScheduler::kLowestRtt;
  /// Per-radio energy above base load (joules), integrated from flow
  /// start to end-of-run + 20 s so the LTE tail is fully charged.
  PerPath<double> energy_j;
};

/// Knobs for run_mptcp_flow beyond the flow itself.
struct FlowRunOptions : FlowLimits {
  std::uint64_t connection_id = 1;
  /// Called after the testbed is wired but before the transfer starts;
  /// the fault layer uses this to arm a FaultInjector against the bed's
  /// paths/interfaces without mptcp depending on the faults library.
  std::function<void(MptcpTestbed&)> on_testbed;
};

[[nodiscard]] MptcpFlowResult run_mptcp_flow(Simulator& sim, const MpNetworkSetup& setup,
                                             const MptcpSpec& spec, std::int64_t bytes,
                                             Direction dir, const FlowRunOptions& options);

[[nodiscard]] MptcpFlowResult run_mptcp_flow(Simulator& sim, const MpNetworkSetup& setup,
                                             const MptcpSpec& spec, std::int64_t bytes,
                                             Direction dir, Duration timeout = sec(120),
                                             std::uint64_t connection_id = 1);

}  // namespace mn
