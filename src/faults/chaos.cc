#include "faults/chaos.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "faults/fault_injector.hpp"
#include "net/trace_gen.hpp"
#include "obs/obs.hpp"
#include "store/codec.hpp"
#include "store/memoize.hpp"
#include "util/rng.hpp"

namespace mn {
namespace {

constexpr std::uint8_t kChaosReportBlobVersion = 2;  // v2: negotiation fields
/// Smallest transfer a chaos run draws.
constexpr std::int64_t kMinBytes = 50'000;

/// Best-effort black-box file: reporting must never throw.
void write_flight_dump(const ChaosRunReport& report, const std::string& dir) {
  if (report.flight_dump.empty() || dir.empty()) return;
  const std::string path = dir + "/chaos_flight_" + std::to_string(report.seed) + ".mnfr";
  std::ofstream out(path, std::ios::binary);
  if (out) out << report.flight_dump;
}

/// A random emulated access link: fixed-rate or trace-driven, optional
/// random loss, varied queue depth — the whole space the real campaign
/// links live in.
LinkSpec random_link(Rng& rng, bool lte) {
  LinkSpec s;
  s.one_way_delay = msec(rng.uniform_int(5, lte ? 60 : 30));
  s.queue_packets = static_cast<int>(rng.uniform_int(16, 200));
  s.loss_rate = rng.chance(0.5) ? rng.uniform(0.0, 0.02) : 0.0;
  s.loss_seed = rng.next_u64();
  if (rng.chance(0.3)) {
    const Duration period = sec(2);
    if (lte) {
      TwoStateSpec ts;
      ts.good_mbps = rng.uniform(5.0, 30.0);
      ts.bad_mbps = rng.uniform(0.5, 3.0);
      ts.mean_dwell = msec(rng.uniform_int(100, 600));
      s.trace = std::make_shared<DeliveryTrace>(two_state_trace(ts, period, rng));
    } else {
      s.trace = std::make_shared<DeliveryTrace>(poisson_trace(rng.uniform(2.0, 30.0), period, rng));
    }
  } else {
    s.rate_mbps = rng.uniform(1.0, 50.0);
  }
  return s;
}

MpNetworkSetup random_setup(Rng& rng) {
  MpNetworkSetup setup;
  for (const PathId p : kPaths) {
    setup.paths[p].up = random_link(rng, /*lte=*/p == PathId::kLte);
    setup.paths[p].down = random_link(rng, /*lte=*/p == PathId::kLte);
  }
  return setup;
}

MptcpSpec random_spec(Rng& rng) {
  MptcpSpec spec;
  spec.primary = rng.chance(0.5) ? PathId::kWifi : PathId::kLte;
  switch (rng.uniform_int(0, 2)) {
    case 0: spec.cc = CcAlgo::kDecoupled; break;
    case 1: spec.cc = CcAlgo::kCoupled; break;
    default: spec.cc = CcAlgo::kOlia; break;
  }
  switch (rng.uniform_int(0, 2)) {
    case 0: spec.mode = MpMode::kFull; break;
    case 1: spec.mode = MpMode::kBackup; break;
    default: spec.mode = MpMode::kSinglePath; break;
  }
  spec.scheduler = static_cast<MpScheduler>(rng.uniform_int(0, kMpSchedulerCount - 1));
  return spec;
}

void check_counters(ChaosRunReport& report, DuplexPath& path, PathId id) {
  const std::string prefix = "stage counters inconsistent: " + std::string{path_name(id)};
  if (!path.uplink().counters_consistent()) report.violations.push_back(prefix + " uplink");
  if (!path.downlink().counters_consistent()) report.violations.push_back(prefix + " downlink");
}

}  // namespace

ChaosRunReport run_chaos_run(std::uint64_t seed, const ChaosSoakOptions& options) {
  ChaosRunReport report;
  report.seed = seed;

  Rng rng{mix_seed(seed, "chaos-run")};
  const MpNetworkSetup setup = random_setup(rng);
  const MptcpSpec spec = random_spec(rng);
  const Direction dir = rng.chance(0.5) ? Direction::kDownload : Direction::kUpload;
  report.bytes_requested = rng.uniform_int(kMinBytes, options.max_bytes);
  const FaultPlan plan = random_fault_plan(rng.next_u64(), options.plan);
  report.plan_text = plan.serialize();

  // Per-run observability shard: metrics always, flight recorder only
  // when the caller sized one.  Declared before the testbed so nothing
  // records into a dead hub during teardown.
  obs::ObsHub hub{options.flight_recorder_events};

  Simulator sim;
  sim.set_obs(&hub);
  MptcpTestbed bed{sim, setup, spec};
  FaultInjector injector{sim};
  for (const PathId p : kPaths) injector.set_target(p, &bed.path(p), &bed.iface(p));
  injector.arm(plan);

  bed.start_transfer(report.bytes_requested, dir);
  const WatchdogResult watchdog = bed.run_with_watchdog(options.timeout, options.stall_limit);
  report.completed = watchdog.completed;
  report.failure_reason = watchdog.reason;
  report.max_stall = watchdog.max_stall;
  report.faults_applied = injector.events_applied();
  report.faults_skipped = injector.events_skipped();
  report.negotiated_mp = bed.client().negotiated_mp();
  report.achieved_mp = bed.client().achieved_mp();
  report.fallback_reason = bed.client().fallback_reason();
  if (report.fallback_reason.empty()) {
    report.fallback_reason = bed.server().fallback_reason();
  }

  // Invariant 3: the watchdog bound held.
  if (watchdog.max_stall > options.stall_limit) {
    report.violations.push_back("stall " + std::to_string(watchdog.max_stall.millis()) +
                                " ms exceeds watchdog bound");
  }

  // Invariant 1: byte conservation on both ends, in both roles.
  MptcpAgent& sender = (dir == Direction::kUpload) ? bed.client() : bed.server();
  MptcpAgent& receiver = (dir == Direction::kUpload) ? bed.server() : bed.client();
  report.bytes_observed = receiver.data_delivered();
  if (sender.data_acked() > report.bytes_requested) {
    report.violations.push_back("sender acked more than it sent");
  }
  if (receiver.data_delivered() > report.bytes_requested) {
    report.violations.push_back("receiver delivered more than was sent");
  }
  if (receiver.data_delivered_in_order() > receiver.data_delivered()) {
    report.violations.push_back("in-order delivery exceeds total delivery");
  }
  // A completed run must have delivered everything — except bytes the
  // receiver provably discarded because a middlebox destroyed their DSS
  // mapping and the loss signal (MP_FAIL) raced the close; those are
  // accounted, not silently lost.
  if (report.completed && receiver.data_delivered_in_order() +
                                  receiver.mangled_discarded() <
                              report.bytes_requested) {
    report.violations.push_back("completed run delivered less than requested");
  }

  // Invariant 2: quiesce and drain — nothing may keep the queue alive.
  bed.shutdown();
  injector.disarm();
  sim.run_until_idle();
  if (sim.pending_events() != 0) {
    report.violations.push_back("event-queue leak: " + std::to_string(sim.pending_events()) +
                                " pending after idle");
  }

  // Invariant 4: per-stage conservation, checked after the drain so
  // queued packets have either been delivered or dropped.
  for (const PathId p : kPaths) check_counters(report, bed.path(p), p);

  report.metrics = hub.snapshot();
  // Black box: when the run aborted or broke an invariant, keep the last
  // flight-recorder events with the report (and on disk if asked).
  if (hub.flight() && (!report.completed || !report.ok())) {
    report.flight_dump = hub.flight()->serialize();
    write_flight_dump(report, options.flight_dump_dir);
  }
  return report;
}

store::ScenarioKey chaos_scenario_key(std::uint64_t seed, const ChaosSoakOptions& options) {
  store::KeyBuilder key{"chaos-run"};
  key.u64(seed)
      .i64(kMinBytes)
      .i64(options.max_bytes)
      .i64(options.timeout.usec())
      .i64(options.stall_limit.usec())
      .i64(options.plan.horizon.usec())
      .u32(static_cast<std::uint32_t>(options.plan.max_events))
      .f64(options.plan.restore_probability)
      .f64(options.plan.middlebox_probability)
      .u64(options.flight_recorder_events);
  return key.finish();
}

std::string serialize_chaos_report(const ChaosRunReport& report) {
  store::BinWriter w;
  w.put_u8(kChaosReportBlobVersion);
  w.put_u64(report.seed);
  w.put_bool(report.completed);
  w.put_str(report.failure_reason);
  w.put_i64(report.max_stall.usec());
  w.put_u32(static_cast<std::uint32_t>(report.faults_applied));
  w.put_u32(static_cast<std::uint32_t>(report.faults_skipped));
  w.put_i64(report.bytes_requested);
  w.put_i64(report.bytes_observed);
  w.put_str(report.plan_text);
  w.put_bool(report.negotiated_mp);
  w.put_bool(report.achieved_mp);
  w.put_str(report.fallback_reason);
  w.put_u32(static_cast<std::uint32_t>(report.violations.size()));
  for (const std::string& v : report.violations) w.put_str(v);
  store::put_metrics_snapshot(w, report.metrics);
  w.put_str(report.flight_dump);
  return w.take();
}

ChaosRunReport parse_chaos_report(std::string_view blob) {
  store::BinReader r{blob};
  if (r.get_u8() != kChaosReportBlobVersion) {
    throw std::runtime_error("chaos report blob: unknown layout version");
  }
  ChaosRunReport report;
  report.seed = r.get_u64();
  report.completed = r.get_bool();
  report.failure_reason = r.get_str();
  report.max_stall = Duration{r.get_i64()};
  report.faults_applied = static_cast<int>(r.get_u32());
  report.faults_skipped = static_cast<int>(r.get_u32());
  report.bytes_requested = r.get_i64();
  report.bytes_observed = r.get_i64();
  report.plan_text = r.get_str();
  report.negotiated_mp = r.get_bool();
  report.achieved_mp = r.get_bool();
  report.fallback_reason = r.get_str();
  const std::uint32_t violations = r.get_u32();
  if (violations > r.remaining() / 4) throw std::runtime_error("store payload truncated");
  report.violations.reserve(violations);
  for (std::uint32_t i = 0; i < violations; ++i) report.violations.push_back(r.get_str());
  report.metrics = store::get_metrics_snapshot(r);
  report.flight_dump = r.get_str();
  r.expect_done();
  return report;
}

ChaosSoakSummary run_chaos_soak(const ChaosSoakOptions& options) {
  // Each run is seeded independently and owns all of its state; the
  // serial reduction below keeps the summary (and the order of violation
  // reports) identical at any worker count.  A cache hit re-writes its
  // flight-dump black box, exactly as the run itself would have.
  const std::size_t n = options.runs > 0 ? static_cast<std::size_t>(options.runs) : 0;
  auto seed_of = [&](std::size_t i) { return options.seed + static_cast<std::uint64_t>(i); };
  const std::vector<ChaosRunReport> reports = store::memoized_map(
      n, options.store, options.parallelism,
      [&](std::size_t i) { return chaos_scenario_key(seed_of(i), options); },
      [&](std::size_t i) { return run_chaos_run(seed_of(i), options); }, serialize_chaos_report,
      [&](std::string_view blob) {
        ChaosRunReport report = parse_chaos_report(blob);
        write_flight_dump(report, options.flight_dump_dir);
        return report;
      });
  ChaosSoakSummary summary;
  for (const ChaosRunReport& report : reports) {
    ++summary.runs;
    if (report.completed) {
      ++summary.completed;
    } else {
      ++summary.aborted;
    }
    summary.max_stall = std::max(summary.max_stall, report.max_stall);
    if (!report.ok()) summary.violating.push_back(report);
  }
  return summary;
}

}  // namespace mn
