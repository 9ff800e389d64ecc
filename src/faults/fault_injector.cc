#include "faults/fault_injector.hpp"

#include "util/rng.hpp"

namespace mn {

void FaultInjector::set_target(PathId path, DuplexPath* duplex, NetworkInterface* iface) {
  Target& t = targets_[path];
  t.duplex = duplex;
  t.iface = iface;
}

void FaultInjector::arm(const FaultPlan& plan) {
  pending_.reserve(pending_.size() + plan.size());
  armed_events_.reserve(armed_events_.size() + plan.size());
  for (const FaultEvent& ev : plan.events()) {
    // The event is parked in armed_events_ and the callback captures
    // only its index: a FaultEvent is too large for the simulator's
    // inline-callback buffer, and fault arming must not allocate.
    const std::size_t idx = armed_events_.size();
    armed_events_.push_back(ev);
    pending_.push_back(
        sim_.schedule_after(ev.at, [this, idx] { apply(armed_events_[idx]); }));
    if (auto* o = sim_.obs()) {
      o->count(o->ids().fault_armed);
      o->record(sim_.now(), obs::FlightEventType::kFaultArm,
                static_cast<std::uint8_t>(ev.kind), 0, (sim_.now() + ev.at).usec());
    }
  }
}

void FaultInjector::disarm() {
  for (const EventId id : pending_) sim_.cancel(id);
  pending_.clear();
  armed_events_.clear();
}

void FaultInjector::for_each_pipe(const Target& t, LinkDir dir,
                                  const std::function<void(OneWayPipe&)>& fn) {
  if (dir != LinkDir::kDown) fn(t.duplex->uplink());
  if (dir != LinkDir::kUp) fn(t.duplex->downlink());
}

void FaultInjector::apply(const FaultEvent& ev) {
  Target& t = targets_[ev.path];
  const bool needs_iface = ev.kind == FaultKind::kSoftDown ||
                           ev.kind == FaultKind::kSoftUp ||
                           ev.kind == FaultKind::kUnplug || ev.kind == FaultKind::kReplug;
  if ((needs_iface && !t.iface) || (!needs_iface && !t.duplex)) {
    ++skipped_;
    if (auto* o = sim_.obs()) {
      o->count(o->ids().fault_skipped);
      o->record(sim_.now(), obs::FlightEventType::kFaultFire,
                static_cast<std::uint8_t>(ev.kind), /*arg32=skipped*/ 1, 0);
    }
    return;
  }
  switch (ev.kind) {
    case FaultKind::kBlackhole:
      for_each_pipe(t, ev.dir, [](OneWayPipe& p) { p.set_blackhole(true); });
      break;
    case FaultKind::kRestore:
      for_each_pipe(t, ev.dir, [](OneWayPipe& p) { p.set_blackhole(false); });
      break;
    case FaultKind::kSoftDown:
      t.iface->disable_soft();
      break;
    case FaultKind::kSoftUp:
      t.iface->enable();
      break;
    case FaultKind::kUnplug:
      t.iface->unplug();
      break;
    case FaultKind::kReplug:
      t.iface->plug_in();
      break;
    case FaultKind::kBurstOn:
      for_each_pipe(t, ev.dir, [&ev](OneWayPipe& p) { p.set_burst_loss(ev.ge); });
      break;
    case FaultKind::kBurstOff:
      for_each_pipe(t, ev.dir, [](OneWayPipe& p) { p.clear_burst_loss(); });
      break;
    case FaultKind::kRateCrash:
      for_each_pipe(t, ev.dir, [&ev](OneWayPipe& p) { p.set_rate_mbps(ev.rate_mbps); });
      break;
    case FaultKind::kRateRestore:
      for_each_pipe(t, ev.dir, [](OneWayPipe& p) { p.restore_rate(); });
      break;
    case FaultKind::kDelaySpike:
      for_each_pipe(t, ev.dir, [&ev](OneWayPipe& p) { p.set_delay_spike(ev.extra_delay); });
      break;
    case FaultKind::kDelayClear:
      for_each_pipe(t, ev.dir, [](OneWayPipe& p) { p.clear_delay_spike(); });
      break;
    case FaultKind::kMiddleboxOn:
      // Per-direction seed fork, mirroring LinkSpec::direction_spec: a
      // kBoth event must not give both pipes identical policy draws.
      if (ev.dir != LinkDir::kDown) {
        MiddleboxSpec s = ev.middlebox;
        s.seed = mix_seed(s.seed, "up");
        t.duplex->uplink().set_middlebox(s);
      }
      if (ev.dir != LinkDir::kUp) {
        MiddleboxSpec s = ev.middlebox;
        s.seed = mix_seed(s.seed, "down");
        t.duplex->downlink().set_middlebox(s);
      }
      break;
    case FaultKind::kMiddleboxOff:
      for_each_pipe(t, ev.dir, [](OneWayPipe& p) { p.clear_middlebox(); });
      break;
  }
  ++applied_;
  log_.push_back(ev.describe());
  if (auto* o = sim_.obs()) {
    o->count(o->ids().fault_applied);
    o->record(sim_.now(), obs::FlightEventType::kFaultFire,
              static_cast<std::uint8_t>(ev.kind), 0, 0);
  }
}

}  // namespace mn
