#include "core/experiment.hpp"

#include <stdexcept>
#include <utility>

#include "faults/fault_injector.hpp"
#include "store/codec.hpp"
#include "store/memoize.hpp"
#include "tcp/tcp_endpoint.hpp"

namespace mn {
namespace {

/// Absorb one link direction into a scenario key: every field of the
/// spec, including the full-precision trace contents when trace-driven.
void key_link(store::KeyBuilder& key, const LinkSpec& spec) {
  key.boolean(spec.rate_mbps.has_value());
  if (spec.rate_mbps) key.f64(*spec.rate_mbps);
  key.boolean(spec.trace != nullptr);
  if (spec.trace) {
    key.i64(spec.trace->period().usec());
    key.u64(spec.trace->opportunities_per_period());
    for (const Duration d : spec.trace->opportunities()) key.i64(d.usec());
  }
  key.i64(spec.one_way_delay.usec())
      .f64(spec.loss_rate)
      .u32(static_cast<std::uint32_t>(spec.queue_packets))
      .u64(spec.loss_seed)
      .boolean(spec.burst_loss.has_value());
  if (spec.burst_loss) {
    key.f64(spec.burst_loss->loss_good)
        .f64(spec.burst_loss->loss_bad)
        .f64(spec.burst_loss->p_good_to_bad)
        .f64(spec.burst_loss->p_bad_to_good)
        .u64(spec.burst_loss->seed);
  }
}

void key_transport(store::KeyBuilder& key, const TransportConfig& config) {
  key.u8(static_cast<std::uint8_t>(config.kind)).u8(static_cast<std::uint8_t>(config.path));
  const MptcpSpec& mp = config.mp;
  key.u8(static_cast<std::uint8_t>(mp.primary))
      .u8(static_cast<std::uint8_t>(mp.cc))
      .u8(static_cast<std::uint8_t>(mp.mode))
      .i64(mp.join_delay.usec())
      .i64(mp.receive_window_bytes)
      .u8(static_cast<std::uint8_t>(mp.scheduler))
      .boolean(mp.opportunistic_reinjection)
      .boolean(mp.penalization)
      // The fixed RTO floor and start stay keyed so stored results hit.
      .i64(kMinRto.usec())
      .i64(kInitialRto.usec())
      .i64(mp.subflow_max_rto.usec());
}

constexpr std::uint8_t kSweepPointBlobVersion = 1;

}  // namespace

TransportFlowResult run_transport_flow(Simulator& sim, const MpNetworkSetup& net,
                                       const TransportConfig& config, std::int64_t bytes,
                                       Direction dir, const TransportRunOptions& options) {
  TransportFlowResult out;
  if (config.kind == TransportKind::kSinglePath) {
    DuplexPath path{sim, net.paths[config.path].up, net.paths[config.path].down};
    FaultInjector injector{sim};
    if (options.faults) {
      // Plan events addressed to the other network are skipped by the
      // injector (a single-path flow has only one target).
      injector.set_target(config.path, &path);
      injector.arm(*options.faults);
    }
    BulkFlowOptions flow_options;
    static_cast<FlowLimits&>(flow_options) = options;
    static_cast<FlowOutcome&>(out) =
        run_bulk_flow(sim, path, bytes, dir, reno_factory(), flow_options);
    return out;
  }
  FaultInjector injector{sim};
  FlowRunOptions flow_options;
  static_cast<FlowLimits&>(flow_options) = options;
  if (options.faults) {
    flow_options.on_testbed = [&injector, &options](MptcpTestbed& bed) {
      for (const PathId p : kPaths) injector.set_target(p, &bed.path(p), &bed.iface(p));
      injector.arm(*options.faults);
    };
  }
  MptcpFlowResult r = run_mptcp_flow(sim, net, config.mp, bytes, dir, flow_options);
  // The testbed is gone once run_mptcp_flow returns; drop any event still
  // scheduled against it before this scope's own teardown.
  injector.disarm();
  static_cast<FlowOutcome&>(out) = std::move(static_cast<FlowOutcome&>(r));
  static_cast<SubflowTimelines&>(out) = std::move(static_cast<SubflowTimelines&>(r));
  return out;
}

TransportFlowResult run_transport_flow(Simulator& sim, const MpNetworkSetup& net,
                                       const TransportConfig& config, std::int64_t bytes,
                                       Direction dir, Duration timeout) {
  TransportRunOptions options;
  options.cap_only(timeout);
  return run_transport_flow(sim, net, config, bytes, dir, options);
}

store::ScenarioKey sweep_scenario_key(const MpNetworkSetup& net,
                                      const TransportConfig& config, std::int64_t bytes,
                                      Direction dir) {
  store::KeyBuilder key{"sweep-point"};
  for (const PathId p : kPaths) {
    key_link(key, net.paths[p].up);
    key_link(key, net.paths[p].down);
  }
  for (const PathId p : kPaths) key.boolean(net.paths[p].reports_carrier_loss);
  key_transport(key, config);
  key.i64(bytes).u8(static_cast<std::uint8_t>(dir));
  return key.finish();
}

std::string serialize_sweep_point(const SweepPoint& point) {
  store::BinWriter w;
  w.put_u8(kSweepPointBlobVersion);
  w.put_i64(point.flow_bytes);
  w.put_f64(point.throughput_mbps);
  w.put_i64(point.completion_time.usec());
  return w.take();
}

SweepPoint parse_sweep_point(std::string_view blob) {
  store::BinReader r{blob};
  if (r.get_u8() != kSweepPointBlobVersion) {
    throw std::runtime_error("sweep point blob: unknown layout version");
  }
  SweepPoint point;
  point.flow_bytes = r.get_i64();
  point.throughput_mbps = r.get_f64();
  point.completion_time = Duration{r.get_i64()};
  r.expect_done();
  return point;
}

std::vector<SweepPoint> sweep_flow_sizes(const MpNetworkSetup& net,
                                         const TransportConfig& config,
                                         const std::vector<std::int64_t>& sizes,
                                         const SweepOptions& options) {
  // Each point is a pure function of (net, config, bytes, dir): a fresh
  // private Simulator per point, the shared setup read-only.
  return store::memoized_map(
      sizes.size(), options.store, options.parallelism,
      [&](std::size_t i) { return sweep_scenario_key(net, config, sizes[i], options.dir); },
      [&](std::size_t i) {
        Simulator sim;  // fresh world per point: identical starting conditions
        const auto r = run_transport_flow(sim, net, config, sizes[i], options.dir);
        return SweepPoint{sizes[i], r.throughput_mbps, r.completion_time};
      },
      serialize_sweep_point, parse_sweep_point);
}

}  // namespace mn
