// Radio power modelling (paper Section 3.6.2, Figure 16).
//
// Replaces the Monsoon power monitor: packet activity timestamps from an
// interface tap are folded into a radio state machine — active while
// packets move, then a promoted "tail" state (the RRC DCH->FACH demotion
// timer on LTE), then idle.  The headline effect reproduced here is the
// ~15-second, ~1-W LTE tail: even a lone SYN/FIN pair keeps the radio
// hot, which is why Backup mode saves almost nothing for short flows
// when LTE is the backup interface.
#pragma once

#include <cstdint>
#include <vector>

#include "mptcp/mptcp.hpp"
#include "util/time.hpp"

namespace mn {

namespace obs {
class ObsHub;
}  // namespace obs

struct RadioPowerParams {
  double active_watts = 2.5;        // above base, while transferring
  double tail_watts = 1.0;          // above base, in the tail state
  Duration tail_duration = sec(15);
  /// Activity within this gap of the previous packet is one burst.
  Duration burst_hold = msec(100);
};

/// Figure-16 defaults, in watts above the phone's 1 W base.
[[nodiscard]] RadioPowerParams lte_power_params();
[[nodiscard]] RadioPowerParams wifi_power_params();
/// The Figure-16 defaults of network `p`'s radio.
[[nodiscard]] RadioPowerParams power_params(PathId p);

constexpr double kBasePowerWatts = 1.0;  // screen + CPU (paper's baseline)

/// One step of a piecewise-constant power timeline.
struct PowerStep {
  TimePoint start;
  TimePoint end;
  double watts = 0.0;  // absolute (includes base)
};

class EnergyMeter {
 public:
  explicit EnergyMeter(RadioPowerParams params) : params_(params) {}

  /// Record one packet crossing the radio.  Timestamps may arrive in any
  /// order; `activity_` is kept sorted on insertion (the common in-order
  /// append is O(1)), so timeline()/energy_joules()/publish() never
  /// copy-and-sort — they used to re-sort the same vector on every call.
  void add_activity(TimePoint t) {
    if (activity_.empty() || !(t < activity_.back())) {
      activity_.push_back(t);
      return;
    }
    insert_out_of_order(t);
  }

  [[nodiscard]] std::size_t activity_count() const { return activity_.size(); }

  /// Absolute power timeline over [0, horizon], including base power.
  [[nodiscard]] std::vector<PowerStep> timeline(TimePoint horizon) const;

  /// Total energy consumed over [0, horizon], in joules.
  [[nodiscard]] double energy_joules(TimePoint horizon) const;
  /// Energy above the base load — the radio's own cost.
  [[nodiscard]] double radio_energy_joules(TimePoint horizon) const;

  /// Publish the [0, horizon] timeline into an observability hub:
  /// one kRadioState flight event per power-state transition
  /// (0 idle / 1 active / 2 tail, classified by wattage), the
  /// transition count, and the radio's energy as a millijoule gauge
  /// (`radio_id` 0 = WiFi, 1 = LTE).  Post-hoc like the rest of the
  /// meter — call once after the run, not per packet.
  void publish(obs::ObsHub& hub, TimePoint horizon, std::uint8_t radio_id) const;

 private:
  void insert_out_of_order(TimePoint t);

  RadioPowerParams params_;
  std::vector<TimePoint> activity_;  // invariant: sorted ascending
};

}  // namespace mn
