// FaultInjector: executes a FaultPlan against live network components.
//
// The injector is bound to up to two duplex paths (indexed by PathId)
// and optionally their client-side NetworkInterfaces, then armed with a
// plan: every event is scheduled on the simulator relative to the arm
// time and applied through the components' fault hooks when it fires.
// Events whose target is not registered (e.g. an interface event in a
// single-path experiment with no NetworkInterface) are counted as
// skipped, not errors — one plan can drive many experiment shapes.
//
// disarm() cancels everything still pending; the chaos-soak harness
// calls it before draining the simulator so a plan with events beyond
// the flow's lifetime cannot leak queue entries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "net/path.hpp"
#include "sim/simulator.hpp"

namespace mn {

class FaultInjector {
 public:
  explicit FaultInjector(Simulator& sim) : sim_(sim) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;
  ~FaultInjector() { disarm(); }

  /// Register the components behind `path`.  `iface` may be null when
  /// the experiment has no interface layer (plain DuplexPath flows).
  void set_target(PathId path, DuplexPath* duplex, NetworkInterface* iface = nullptr);

  /// Schedule every event of `plan` relative to sim.now().  May be
  /// called repeatedly (plans accumulate).
  void arm(const FaultPlan& plan);
  /// Cancel all not-yet-fired events.
  void disarm();

  /// Apply one event immediately (also the per-event execution path).
  void apply(const FaultEvent& ev);

  [[nodiscard]] int events_applied() const { return applied_; }
  [[nodiscard]] int events_skipped() const { return skipped_; }
  /// Human-readable record of every applied event (test diagnostics).
  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  struct Target {
    DuplexPath* duplex = nullptr;
    NetworkInterface* iface = nullptr;
  };

  void for_each_pipe(const Target& t, LinkDir dir, const std::function<void(OneWayPipe&)>& fn);

  Simulator& sim_;
  PerPath<Target> targets_;
  std::vector<EventId> pending_;
  std::vector<FaultEvent> armed_events_;  // owned copies the callbacks index into
  int applied_ = 0;
  int skipped_ = 0;
  std::vector<std::string> log_;
};

}  // namespace mn
