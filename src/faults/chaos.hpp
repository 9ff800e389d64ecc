// Chaos soak harness: N seeded random fault plans over randomized
// WiFi+LTE setups, each run checked against the stack's safety
// invariants.
//
// A run is allowed to fail to complete (that is the point of injecting
// unrestored blackholes), but it must fail *well*:
//   1. byte conservation — no endpoint ever observes more data than was
//      sent, and in-order delivery never exceeds total delivery;
//   2. no event-queue leak — after shutdown the simulator drains to an
//      empty queue;
//   3. bounded stall — the watchdog caps the longest progress gap;
//   4. stage-counter consistency — accepted == delivered + dropped +
//      queued on every pipeline stage of all four one-way pipes.
// Any violation is reported with the serialized plan so the exact run
// can be replayed from its seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "mptcp/testbed.hpp"
#include "obs/metrics.hpp"
#include "store/key.hpp"
#include "store/store.hpp"

namespace mn {

struct ChaosSoakOptions {
  int runs = 200;
  std::uint64_t seed = 20140814;
  /// Each run moves a uniform draw of bytes in [50'000, max_bytes].
  std::int64_t max_bytes = 2'000'000;
  Duration timeout = sec(120);
  /// Watchdog bound asserted by invariant 3.
  Duration stall_limit = sec(10);
  RandomPlanOptions plan;
  /// Worker threads for the soak: 0/1 = serial, negative = follow
  /// MN_THREADS.  Each run is a pure function of its seed, so the
  /// summary is identical for every value.
  int parallelism = -1;
  /// Flight-recorder ring capacity per run; 0 disables the recorder.
  /// When a run trips the watchdog or violates an invariant, the ring's
  /// last events are serialized into ChaosRunReport::flight_dump (the
  /// black box of the crash).
  std::size_t flight_recorder_events = 0;
  /// When non-empty and a dump was taken, also write it to
  /// `<dir>/chaos_flight_<seed>.mnfr` (FlightRecorder::parse reads it).
  std::string flight_dump_dir;
  /// Optional result store, consulted through store::memoized_map:
  /// hits replay, misses execute and are put.  A cached run that
  /// carried a flight dump re-writes its .mnfr file, so the on-disk
  /// black boxes survive a crash-and-rerun exactly like the reports.
  /// Not owned.
  store::Store* store = nullptr;
};

/// Everything observed in one chaos run (reproducible from `seed`).
struct ChaosRunReport {
  std::uint64_t seed = 0;
  bool completed = false;
  std::string failure_reason;  // watchdog verdict when !completed
  Duration max_stall{0};
  int faults_applied = 0;
  int faults_skipped = 0;
  std::int64_t bytes_requested = 0;
  std::int64_t bytes_observed = 0;  // receiver's data-level total
  std::string plan_text;            // serialized FaultPlan (replay aid)
  /// Multipath negotiation outcome (client view; middlebox plans).
  bool negotiated_mp = false;
  bool achieved_mp = false;
  /// Why multipath degraded ("" when it did not) — under middlebox-only
  /// plans, every watchdog abort must carry one of these.
  std::string fallback_reason;
  /// One entry per violated invariant; empty means the run was safe.
  std::vector<std::string> violations;
  /// Metrics snapshot of the run's private ObsHub.
  obs::MetricsSnapshot metrics;
  /// Serialized flight-recorder ring ("MNFR1" format), captured when the
  /// run aborted or violated an invariant and flight_recorder_events > 0.
  std::string flight_dump;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Execute one seeded chaos run and check all four invariants.
[[nodiscard]] ChaosRunReport run_chaos_run(std::uint64_t seed,
                                           const ChaosSoakOptions& options = {});

struct ChaosSoakSummary {
  int runs = 0;
  int completed = 0;
  int aborted = 0;  // watchdog/timeout aborts — expected under chaos
  /// Reports that violated an invariant (must be empty for a green soak).
  std::vector<ChaosRunReport> violating;
  Duration max_stall{0};

  [[nodiscard]] bool ok() const { return violating.empty(); }
};

/// Run `options.runs` seeded chaos runs (seeds options.seed + i).
[[nodiscard]] ChaosSoakSummary run_chaos_soak(const ChaosSoakOptions& options = {});

/// Content key of one chaos run: the seed plus every option that shapes
/// the run (byte range, timeout, watchdog, random-plan knobs, and the
/// flight-recorder size, which changes the captured dump).
[[nodiscard]] store::ScenarioKey chaos_scenario_key(std::uint64_t seed,
                                                    const ChaosSoakOptions& options);

/// Store blob codec for ChaosRunReport; parse throws std::runtime_error
/// on corruption (treated upstream as a cache miss).
[[nodiscard]] std::string serialize_chaos_report(const ChaosRunReport& report);
[[nodiscard]] ChaosRunReport parse_chaos_report(std::string_view blob);

}  // namespace mn
