#include "mptcp/testbed.hpp"

#include <utility>

#include "util/units.hpp"

namespace mn {

MpNetworkSetup symmetric_setup(const LinkSpec& wifi, const LinkSpec& lte) {
  MpNetworkSetup s;
  s.paths[PathId::kWifi].up = s.paths[PathId::kWifi].down = wifi;
  s.paths[PathId::kLte].up = s.paths[PathId::kLte].down = lte;
  return s;
}

MpNetwork::MpNetwork(Simulator& sim, const MpNetworkSetup& setup) {
  for (const PathId p : kPaths) {
    paths_[p] = std::make_unique<DuplexPath>(sim, setup.paths[p].up, setup.paths[p].down);
  }
  for (const PathId p : kPaths) {
    ifaces_[p] = std::make_unique<NetworkInterface>(std::string{path_name(p)}, sim, path(p),
                                                    setup.paths[p].reports_carrier_loss);
  }
}

MpNetwork::~MpNetwork() {
  for (const PathId p : kPaths) {
    path(p).set_server_receiver({});
    path(p).set_server_receiver_batch({});
  }
}

MptcpTestbed::MptcpTestbed(Simulator& sim, const MpNetworkSetup& setup, MptcpSpec spec,
                           std::uint64_t connection_id)
    : sim_(sim),
      net_(sim, setup),
      client_(std::make_unique<MptcpAgent>(sim, connection_id, spec, /*is_client=*/true)),
      server_(std::make_unique<MptcpAgent>(sim, connection_id, spec, /*is_client=*/false)),
      meters_{EnergyMeter{power_params(PathId::kWifi)},
              EnergyMeter{power_params(PathId::kLte)}} {
  for (int id = 0; id < std::ssize(kPaths); ++id) {
    const PathId path = client_->subflow_path(id);
    NetworkInterface* iface = &net_.iface(path);
    client_->set_transmit(id, [iface](Packet p) { iface->send(std::move(p)); });
    DuplexPath* dp = &net_.path(path);
    server_->set_transmit(id, [dp](Packet p) { dp->send_down(std::move(p)); });
  }
  // All client-bound traffic funnels into the client agent (subflow_id in
  // the packet selects the endpoint); same on the server.  The client side
  // installs taps below, which forces its interfaces onto the per-packet
  // path; the untapped server side takes each tick's deliveries as one span.
  net_.set_receivers([this](Packet p) { client_->handle_packet(p); },
                     [this](Packet p) { server_->handle_packet(p); });
  net_.set_batch_receivers(
      [this](std::span<Packet> ps) { client_->on_packets({ps.data(), ps.size()}); },
      [this](std::span<Packet> ps) { server_->on_packets({ps.data(), ps.size()}); });

  for (const PathId path : kPaths) {
    // Interface state changes drive MPTCP path management on the client.
    net_.iface(path).add_state_listener(
        [this, path](bool up) { client_->notify_path_state(path, up); });
    // Packet-event taps (Figure 15 / energy model).  The same events
    // feed the per-radio energy meters first-class.
    net_.iface(path).set_tap([this, path](TimePoint t, PacketDir dir, const Packet& p) {
      events_[path].push_back(PacketEvent{t, dir, p.flags, p.payload});
      meters_[path].add_activity(t);
    });
  }
}

void MptcpTestbed::start_transfer(std::int64_t bytes, Direction dir) {
  MptcpAgent& sender = (dir == Direction::kUpload) ? *client_ : *server_;
  sender.send_data(bytes);
  sender.close_when_done();
  server_->listen();
  client_->connect();
}

bool MptcpTestbed::run_until_finished(Duration timeout) {
  const TimePoint deadline = sim_.now() + timeout;
  while (!(client_->finished() && server_->finished()) && sim_.now() < deadline) {
    if (!sim_.step()) break;
  }
  const bool finished = client_->finished() && server_->finished();
  if (!finished && sim_.now() >= deadline) {
    if (auto* o = sim_.obs()) o->count(o->ids().mptcp_run_timeouts);
  }
  return finished;
}

std::uint64_t MptcpTestbed::progress_signature() const {
  // Weighted sum of every monotone transfer counter plus the subflow
  // states (handshake transitions count as progress too).  Because the
  // byte counters only ever increase, a sum changes exactly when any
  // component changes — no hash needed.  States get a 2^40 weight so a
  // state transition can never be cancelled by a byte-counter delta
  // (individual flows move far fewer than a terabyte).  This runs after
  // every simulator step, so it must stay a handful of inline loads.
  std::uint64_t sig = 0;
  for (const MptcpAgent* agent : {client_.get(), server_.get()}) {
    sig += static_cast<std::uint64_t>(agent->data_acked());
    sig += static_cast<std::uint64_t>(agent->data_delivered());
    for (int id = 0; id < std::ssize(kPaths); ++id) {
      const TcpEndpoint& ep = agent->subflow(id);
      sig += static_cast<std::uint64_t>(ep.bytes_acked());
      sig += static_cast<std::uint64_t>(ep.bytes_delivered());
      sig += static_cast<std::uint64_t>(ep.state()) << 40;
    }
  }
  return sig;
}

WatchdogResult MptcpTestbed::run_with_watchdog(Duration timeout, Duration stall_limit) {
  WatchdogResult result = run_watched(
      sim_, timeout, stall_limit, [this] { return client_->finished() && server_->finished(); },
      [this] { return progress_signature(); });
  if (auto* o = sim_.obs(); o && result.reason == "timeout") o->count(o->ids().mptcp_run_timeouts);
  return result;
}

void MptcpTestbed::shutdown() {
  client_->shutdown();
  server_->shutdown();
}

MptcpFlowResult run_mptcp_flow(Simulator& sim, const MpNetworkSetup& setup,
                               const MptcpSpec& spec, std::int64_t bytes, Direction dir,
                               const FlowRunOptions& options) {
  MptcpTestbed bed{sim, setup, spec, options.connection_id};
  const TimePoint start = sim.now();
  MptcpFlowResult result;

  bed.client().on_established = [&] { result.primary_established = sim.now() - start; };
  if (options.on_testbed) options.on_testbed(bed);
  bed.start_transfer(bytes, dir);
  const WatchdogResult watchdog = bed.run_with_watchdog(options.timeout, options.stall_limit);
  if (!watchdog.completed) {
    // Quiesce the agents so the caller can drain the simulator without
    // RTO timers rescheduling forever.
    bed.shutdown();
  }

  // Negotiation outcome: the client (active opener) is authoritative —
  // it is the side real measurement tools observe — but when a one-way
  // middlebox leaves the views asymmetric, a fallback either side saw is
  // worth reporting.
  // Per-radio energy: integrate to end-of-run + 20 s so the LTE tail
  // (15 s after the FIN) is fully charged to the flow that caused it.
  result.scheduler = spec.scheduler;
  const TimePoint energy_horizon = sim.now() + sec(20);
  for (const PathId p : kPaths) {
    result.energy_j[p] = bed.radio_energy_joules(p, energy_horizon);
    if (auto* o = sim.obs()) {
      bed.meter(p).publish(*o, energy_horizon, /*radio_id=*/static_cast<std::uint8_t>(p));
    }
  }

  result.negotiation = bed.client().negotiation();
  result.negotiated_mp = bed.client().negotiated_mp();
  result.achieved_mp = bed.client().achieved_mp();
  result.join_attempts = bed.client().join_attempts();
  result.fallback_reason = bed.client().fallback_reason();
  if (result.fallback_reason.empty()) {
    result.fallback_reason = bed.server().fallback_reason();
  }

  // Client-observed data-level clock: delivered for downloads, acked for
  // uploads (the paper measures at the phone's tcpdump).
  const bool down = dir == Direction::kDownload;
  const MptcpAgent& client = bed.client();
  result.timeline =
      rebase_timeline(down ? client.delivered_timeline() : client.acked_timeline(), start);
  for (int id = 0; id < std::ssize(kPaths); ++id) {
    const TcpEndpoint& sf = client.subflow(id);
    result.subflow_paths[static_cast<std::size_t>(id)] = client.subflow_path(id);
    result.subflow_timelines[static_cast<std::size_t>(id)] =
        rebase_timeline(down ? sf.delivered_timeline() : sf.acked_timeline(), start);
  }
  settle_flow(result, bytes, options.timeout, watchdog);
  return result;
}

MptcpFlowResult run_mptcp_flow(Simulator& sim, const MpNetworkSetup& setup,
                               const MptcpSpec& spec, std::int64_t bytes, Direction dir,
                               Duration timeout, std::uint64_t connection_id) {
  FlowRunOptions options;
  options.cap_only(timeout);
  options.connection_id = connection_id;
  return run_mptcp_flow(sim, setup, spec, bytes, dir, options);
}

}  // namespace mn
