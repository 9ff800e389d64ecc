#include "tcp/flow.hpp"

#include <algorithm>
#include <tuple>

#include "util/units.hpp"

namespace mn {

CcFactory reno_factory() {
  return [] { return std::make_unique<RenoCc>(); };
}

double timeline_throughput_at(const std::vector<TimelinePoint>& timeline, Duration t) {
  if (t.usec() <= 0) return 0.0;
  std::int64_t bytes = 0;
  for (const auto& pt : timeline) {
    if (pt.t.usec() > t.usec()) break;
    bytes = pt.bytes;
  }
  return throughput_mbps(bytes, t);
}

std::vector<TimelinePoint> rebase_timeline(const std::vector<TimelinePoint>& src,
                                           TimePoint start) {
  std::vector<TimelinePoint> out;
  out.reserve(src.size());
  for (const auto& pt : src) out.push_back({TimePoint{(pt.t - start).usec()}, pt.bytes});
  return out;
}

void settle_flow(FlowOutcome& out, std::int64_t bytes, Duration timeout,
                 const WatchdogResult& watch) {
  out.max_stall = watch.max_stall;
  const std::int64_t observed = out.timeline.empty() ? 0 : out.timeline.back().bytes;
  if (observed >= bytes) {
    out.completed = true;
    // Completion = when the byte count first reached the target.
    const auto first = std::ranges::find_if(
        out.timeline, [bytes](std::int64_t b) { return b >= bytes; }, &TimelinePoint::bytes);
    out.completion_time = Duration{first->t.usec()};
    out.throughput_mbps = throughput_mbps(bytes, out.completion_time);
  } else {
    out.completion_time = timeout;
    out.throughput_mbps = throughput_mbps(observed, timeout);
    out.failure_reason = watch.completed ? "incomplete" : watch.reason;
  }
}

FlowResult run_bulk_flow(Simulator& sim, DuplexPath& path, std::int64_t bytes,
                         Direction dir, const CcFactory& cc_factory,
                         const BulkFlowOptions& options) {
  TcpConfig client_cfg;
  client_cfg.connection_id = options.connection_id;
  TcpConfig server_cfg = client_cfg;

  TcpEndpoint client{sim, client_cfg, cc_factory()};
  TcpEndpoint server{sim, server_cfg, cc_factory()};
  const InterfaceTap& tap = options.client_tap;  // outlives the run loop below
  if (tap) {
    client.set_transmit([&path, &tap, &sim](Packet p) {
      tap(sim.now(), PacketDir::kSent, p);
      path.send_up(std::move(p));
    });
    path.set_client_receiver([&client, &tap, &sim](Packet p) {
      tap(sim.now(), PacketDir::kReceived, p);
      client.handle_packet(p);
    });
  } else {
    client.set_transmit([&path](Packet p) { path.send_up(std::move(p)); });
    path.set_client_receiver([&client](Packet p) { client.handle_packet(p); });
    // No tap watching: the pipe may hand a whole tick's deliveries over
    // as one span (a tap needs the per-packet path so its events
    // interleave with the endpoint's reaction in scalar order).
    path.set_client_receiver_batch(
        [&client](std::span<Packet> ps) { client.on_packets({ps.data(), ps.size()}); });
  }
  server.set_transmit([&path](Packet p) { path.send_down(std::move(p)); });
  path.set_server_receiver([&server](Packet p) { server.handle_packet(p); });
  path.set_server_receiver_batch(
      [&server](std::span<Packet> ps) { server.on_packets({ps.data(), ps.size()}); });

  const TimePoint start = sim.now();
  FlowResult result;

  client.on_established = [&] { result.syn_rtt = sim.now() - start; };

  TcpEndpoint& sender = (dir == Direction::kUpload) ? client : server;
  sender.send_bytes(bytes);
  sender.close_when_done();

  server.listen();
  client.connect();

  // Progress = bytes moving or connection state changing; retransmit
  // counters are deliberately excluded so a blackholed flow trips the
  // watchdog instead of burning the whole timeout.
  const WatchdogResult watch = run_watched(
      sim, options.timeout, options.stall_limit,
      [&] { return client.state() == TcpState::kDone && server.state() == TcpState::kDone; },
      [&] {
        return std::tuple{client.bytes_acked() + client.bytes_delivered(),
                          server.bytes_acked() + server.bytes_delivered(), client.state(),
                          server.state()};
      });

  // The client-observed byte clock: delivered bytes for a download, acked
  // bytes for an upload (what tcpdump at the phone would show).
  result.timeline = rebase_timeline(
      dir == Direction::kDownload ? client.delivered_timeline() : client.acked_timeline(),
      start);
  result.retransmits = client.retransmit_count() + server.retransmit_count();
  settle_flow(result, bytes, options.timeout, watch);

  // Freeze both ends so an aborted flow stops rescheduling RTO timers,
  // then detach path handlers: packets still in flight after this run
  // must not call into the endpoints we are about to destroy.
  client.freeze();
  server.freeze();
  path.set_client_receiver({});
  path.set_server_receiver({});
  path.set_client_receiver_batch({});
  path.set_server_receiver_batch({});
  return result;
}

FlowResult run_bulk_flow(Simulator& sim, DuplexPath& path, std::int64_t bytes,
                         Direction dir, const CcFactory& cc_factory, Duration timeout,
                         std::uint64_t connection_id) {
  BulkFlowOptions options;
  options.cap_only(timeout);
  options.connection_id = connection_id;
  return run_bulk_flow(sim, path, bytes, dir, cc_factory, options);
}

Duration measure_ping_rtt(Simulator& sim, DuplexPath& path, int count) {
  Duration total{0};
  int completed = 0;
  // Echo server: bounce everything straight back (a same-tick burst
  // re-enters the reverse pipe as one batch).
  path.set_server_receiver([&path](Packet p) { path.send_down(std::move(p)); });
  path.set_server_receiver_batch(
      [&path](std::span<Packet> ps) { path.send_down_batch(ps); });
  for (int i = 0; i < count; ++i) {
    bool got = false;
    const TimePoint sent = sim.now();
    path.set_client_receiver([&](Packet) {
      if (!got) {
        got = true;
        total += sim.now() - sent;
      }
    });
    Packet ping;
    ping.connection_id = 0xEC40u;  // out-of-band marker; no endpoint routing
    ping.payload = 56;             // ICMP echo payload size
    path.send_up(std::move(ping));
    const TimePoint deadline = sim.now() + sec(5);
    while (!got && sim.now() < deadline) {
      if (!sim.step()) break;
    }
    if (got) ++completed;
  }
  path.set_client_receiver({});
  path.set_server_receiver({});
  path.set_server_receiver_batch({});
  if (completed == 0) return sec(5);
  return Duration{total.usec() / completed};
}

}  // namespace mn
