#include "energy/power_model.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"

namespace mn {

RadioPowerParams lte_power_params() {
  RadioPowerParams p;
  p.active_watts = 2.5;  // Fig 16a: ~3.5 W total while active
  p.tail_watts = 1.0;    // Fig 16a/c: ~2 W total for ~15 s after FIN
  p.tail_duration = sec(15);
  return p;
}

RadioPowerParams wifi_power_params() {
  RadioPowerParams p;
  p.active_watts = 0.7;  // Fig 16b: much lower than LTE
  p.tail_watts = 0.1;    // PSM re-entry is fast
  p.tail_duration = msec(200);
  return p;
}

RadioPowerParams power_params(PathId p) {
  return p == PathId::kWifi ? wifi_power_params() : lte_power_params();
}

void EnergyMeter::insert_out_of_order(TimePoint t) {
  // Rare path (timestamps from merged sources); mirrors the
  // EmpiricalDistribution eager-sorted invariant.
  activity_.insert(std::upper_bound(activity_.begin(), activity_.end(), t), t);
}

std::vector<PowerStep> EnergyMeter::timeline(TimePoint horizon) const {
  // Coalesce packets into active bursts.  `activity_` is sorted by the
  // add_activity invariant — no per-call copy + sort.
  struct Burst {
    TimePoint start;
    TimePoint end;
  };
  std::vector<Burst> bursts;
  for (const TimePoint t : activity_) {
    if (t > horizon) break;
    if (!bursts.empty() && t - bursts.back().end <= params_.burst_hold) {
      bursts.back().end = t;
    } else {
      bursts.push_back({t, t});
    }
  }

  std::vector<PowerStep> steps;
  TimePoint cursor{0};
  auto emit = [&steps](TimePoint a, TimePoint b, double w) {
    if (b <= a) return;
    if (!steps.empty() && steps.back().watts == w && steps.back().end == a) {
      steps.back().end = b;  // merge equal adjacent steps
    } else {
      steps.push_back({a, b, w});
    }
  };

  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const Burst& b = bursts[i];
    emit(cursor, b.start, kBasePowerWatts);  // idle gap before the burst
    // Active: burst span plus the hold (the radio does not demote
    // instantly after the last packet).
    TimePoint active_end = std::min(b.end + params_.burst_hold, horizon);
    // Tail: until demotion, the next burst, or the horizon.
    TimePoint tail_end = std::min(active_end + params_.tail_duration, horizon);
    if (i + 1 < bursts.size()) {
      active_end = std::min(active_end, bursts[i + 1].start);
      tail_end = std::min(tail_end, bursts[i + 1].start);
    }
    emit(b.start, active_end, kBasePowerWatts + params_.active_watts);
    emit(active_end, tail_end, kBasePowerWatts + params_.tail_watts);
    cursor = tail_end;
  }
  emit(cursor, horizon, kBasePowerWatts);
  return steps;
}

double EnergyMeter::energy_joules(TimePoint horizon) const {
  double joules = 0.0;
  for (const PowerStep& s : timeline(horizon)) {
    joules += s.watts * (s.end - s.start).seconds();
  }
  return joules;
}

double EnergyMeter::radio_energy_joules(TimePoint horizon) const {
  return energy_joules(horizon) - kBasePowerWatts * horizon.seconds();
}

void EnergyMeter::publish(obs::ObsHub& hub, TimePoint horizon,
                          std::uint8_t radio_id) const {
  // Classify each timeline step by wattage.  Tail and active are tested
  // against the configured deltas so the classification tracks whatever
  // parameters this meter was built with.
  auto state_of = [this](double watts) -> std::uint8_t {
    const double delta = watts - kBasePowerWatts;
    if (delta >= params_.active_watts) return 1;  // active
    if (delta >= params_.tail_watts && params_.tail_watts > 0.0) return 2;  // tail
    return 0;  // idle
  };

  int last_state = -1;
  for (const PowerStep& s : timeline(horizon)) {
    const std::uint8_t st = state_of(s.watts);
    if (static_cast<int>(st) == last_state) continue;
    last_state = st;
    hub.count(hub.ids().energy_transitions);
    hub.record(s.start, obs::FlightEventType::kRadioState, radio_id,
               /*arg32=state*/ st, /*v1=*/llround(s.watts * 1000.0));
  }

  const std::int64_t mj = llround(radio_energy_joules(horizon) * 1000.0);
  hub.gauge_set(radio_id == 0 ? hub.ids().energy_wifi_mj : hub.ids().energy_lte_mj,
                mj);
}

}  // namespace mn
