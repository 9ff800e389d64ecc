#include "faults/fault_injector.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "mptcp/testbed.hpp"

namespace mn {
namespace {

LinkSpec mk(double mbps, Duration delay, int queue = 64) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = queue;
  return s;
}

MpNetworkSetup basic_setup(double wifi_mbps = 10, double lte_mbps = 10) {
  return symmetric_setup(mk(wifi_mbps, msec(10)), mk(lte_mbps, msec(30)));
}

MptcpSpec spec(PathId primary, MpMode mode = MpMode::kFull) {
  MptcpSpec s;
  s.primary = primary;
  s.cc = CcAlgo::kDecoupled;
  s.mode = mode;
  return s;
}

Packet data_packet(std::int64_t payload) {
  Packet p;
  p.payload = payload;
  return p;
}

TEST(FaultInjector, BlackholeDropsSilentlyAndRestoreResumes) {
  Simulator sim;
  DuplexPath path{sim, mk(100, msec(1)), mk(100, msec(1))};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &path);

  FaultPlan plan;
  plan.blackhole(msec(10), PathId::kWifi).restore(msec(20), PathId::kWifi);
  injector.arm(plan);

  int at_server = 0;
  path.set_server_receiver([&](Packet) { ++at_server; });
  // One packet before, one during, one after the blackhole window.
  sim.schedule_at(TimePoint{msec(5).usec()}, [&] { path.send_up(data_packet(100)); });
  sim.schedule_at(TimePoint{msec(15).usec()}, [&] { path.send_up(data_packet(100)); });
  sim.schedule_at(TimePoint{msec(25).usec()}, [&] { path.send_up(data_packet(100)); });
  sim.run_until_idle();

  EXPECT_EQ(at_server, 2);
  EXPECT_EQ(path.uplink().blackholed_packets(), 1u);
  EXPECT_FALSE(path.uplink().blackholed());
  EXPECT_EQ(injector.events_applied(), 2);
  EXPECT_EQ(injector.events_skipped(), 0);
  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_NE(injector.log()[0].find("blackhole"), std::string::npos);
}

TEST(FaultInjector, DirectionalBlackholeOnlyAffectsThatDirection) {
  Simulator sim;
  DuplexPath path{sim, mk(100, msec(1)), mk(100, msec(1))};
  FaultInjector injector{sim};
  injector.set_target(PathId::kLte, &path);
  FaultPlan plan;
  plan.blackhole(msec(0), PathId::kLte, LinkDir::kUp);
  injector.arm(plan);

  int at_server = 0;
  int at_client = 0;
  path.set_server_receiver([&](Packet) { ++at_server; });
  path.set_client_receiver([&](Packet) { ++at_client; });
  sim.schedule_at(TimePoint{msec(5).usec()}, [&] {
    path.send_up(data_packet(10));
    path.send_down(data_packet(10));
  });
  sim.run_until_idle();
  EXPECT_EQ(at_server, 0);
  EXPECT_EQ(at_client, 1);
}

TEST(FaultInjector, InterfaceEventsWithoutInterfaceAreSkipped) {
  Simulator sim;
  DuplexPath path{sim, mk(10, msec(5)), mk(10, msec(5))};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &path);  // no NetworkInterface
  FaultPlan plan;
  plan.soft_down(msec(1), PathId::kWifi)
      .unplug(msec(2), PathId::kWifi)
      .blackhole(msec(3), PathId::kLte);  // no target registered for LTE at all
  injector.arm(plan);
  sim.run_until_idle();
  EXPECT_EQ(injector.events_applied(), 0);
  EXPECT_EQ(injector.events_skipped(), 3);
}

TEST(FaultInjector, DisarmCancelsEverythingPending) {
  Simulator sim;
  DuplexPath path{sim, mk(10, msec(5)), mk(10, msec(5))};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &path);
  FaultPlan plan;
  plan.blackhole(sec(10), PathId::kWifi).restore(sec(20), PathId::kWifi);
  injector.arm(plan);
  EXPECT_EQ(sim.pending_events(), 2u);
  injector.disarm();
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(injector.events_applied(), 0);
  EXPECT_FALSE(path.uplink().blackholed());
}

TEST(FaultInjector, DelaySpikeShiftsArrivalsUntilCleared) {
  Simulator sim;
  DuplexPath path{sim, mk(12, msec(20)), mk(12, msec(20))};  // 1ms serialization
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &path);
  FaultPlan plan;
  plan.delay_spike(msec(10), PathId::kWifi, msec(100), LinkDir::kUp)
      .delay_clear(msec(200), PathId::kWifi, LinkDir::kUp);
  injector.arm(plan);

  std::vector<std::int64_t> arrivals;
  path.set_server_receiver([&](Packet) { arrivals.push_back(sim.now().usec()); });
  sim.schedule_at(TimePoint{msec(50).usec()}, [&] { path.send_up(data_packet(1460)); });
  sim.schedule_at(TimePoint{msec(250).usec()}, [&] { path.send_up(data_packet(1460)); });
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], msec(171).usec());  // 50 + 1 + 20 + 100
  EXPECT_EQ(arrivals[1], msec(271).usec());  // 250 + 1 + 20
}

TEST(FaultInjector, RateCrashSlowsDeliveryAndRestoreHeals) {
  Simulator sim;
  DuplexPath path{sim, mk(12, msec(0)), mk(12, msec(0))};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &path);
  FaultPlan plan;
  plan.rate_crash(msec(0), PathId::kWifi, 1.2, LinkDir::kUp)  // 1500B -> 10ms
      .rate_restore(msec(100), PathId::kWifi, LinkDir::kUp);
  injector.arm(plan);

  std::vector<std::int64_t> arrivals;
  path.set_server_receiver([&](Packet) { arrivals.push_back(sim.now().usec()); });
  sim.schedule_at(TimePoint{msec(10).usec()}, [&] { path.send_up(data_packet(1460)); });
  sim.schedule_at(TimePoint{msec(200).usec()}, [&] { path.send_up(data_packet(1460)); });
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], msec(20).usec());   // crashed: 10ms serialization
  EXPECT_EQ(arrivals[1], msec(201).usec());  // restored: 1ms serialization
}

TEST(FaultInjector, BurstLossTogglesGilbertElliottStage) {
  Simulator sim;
  DuplexPath path{sim, mk(100, msec(1)), mk(100, msec(1))};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &path);
  GeLossSpec ge;
  ge.loss_good = 1.0;  // drop everything while enabled (degenerate but visible)
  ge.loss_bad = 1.0;
  FaultPlan plan;
  plan.burst_loss(msec(10), PathId::kWifi, ge, LinkDir::kUp)
      .burst_loss_off(msec(20), PathId::kWifi, LinkDir::kUp);
  injector.arm(plan);

  int at_server = 0;
  path.set_server_receiver([&](Packet) { ++at_server; });
  sim.schedule_at(TimePoint{msec(15).usec()}, [&] { path.send_up(data_packet(10)); });
  sim.schedule_at(TimePoint{msec(25).usec()}, [&] { path.send_up(data_packet(10)); });
  sim.run_until_idle();
  EXPECT_EQ(at_server, 1);
  EXPECT_FALSE(path.uplink().burst_stage().enabled());
}

TEST(FaultInjector, SoftDownViaPlanNotifiesPathManager) {
  // The soft_down event must reach MPTCP as a path-state notification
  // (RST-style failover), unlike the silent blackhole.
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi)};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &bed.path(PathId::kWifi), &bed.iface(PathId::kWifi));
  FaultPlan plan;
  plan.soft_down(msec(400), PathId::kWifi);
  injector.arm(plan);
  bed.start_transfer(2'000'000, Direction::kDownload);
  EXPECT_TRUE(bed.run_until_finished(sec(60)));
  EXPECT_TRUE(bed.client().subflow_dead(0));
  EXPECT_EQ(bed.client().data_delivered_in_order(), 2'000'000);
}

// ---------------------------------------------------------------------
// Figure 15g via the FaultPlan API: a silent blackhole of the primary
// (tethered LTE) stalls the whole connection — Backup mode never learns
// the path died — and the transfer resumes once the blackhole lifts.
// ---------------------------------------------------------------------
TEST(FaultInjector, ScriptedBlackholeReproducesFigure15gStall) {
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kLte, MpMode::kBackup)};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &bed.path(PathId::kWifi), &bed.iface(PathId::kWifi));
  injector.set_target(PathId::kLte, &bed.path(PathId::kLte), &bed.iface(PathId::kLte));
  FaultPlan plan;
  plan.blackhole(msec(300), PathId::kLte).restore(sec(5), PathId::kLte);
  injector.arm(plan);

  bed.start_transfer(2'000'000, Direction::kDownload);
  std::int64_t delivered_at_blackhole = -1;
  sim.schedule_at(TimePoint{msec(350).usec()},
                  [&] { delivered_at_blackhole = bed.client().data_delivered_in_order(); });
  std::int64_t delivered_mid_stall = -1;
  sim.schedule_at(TimePoint{sec(4).usec()},
                  [&] { delivered_mid_stall = bed.client().data_delivered_in_order(); });

  const WatchdogResult result = bed.run_with_watchdog(sec(60), sec(30));
  EXPECT_TRUE(result.completed) << result.reason;

  // The stall signature: no progress between the blackhole and the
  // restore, no failover to WiFi (the failure is silent), and a long
  // watchdog-visible progress gap.
  EXPECT_GE(delivered_at_blackhole, 0);
  EXPECT_LE(delivered_mid_stall - delivered_at_blackhole, 64 * 1460)
      << "transfer kept moving through the blackhole";
  std::int64_t wifi_payload = 0;
  for (const auto& ev : bed.events(PathId::kWifi)) wifi_payload += ev.payload;
  EXPECT_EQ(wifi_payload, 0) << "backup activated despite silent failure";
  EXPECT_GE(result.max_stall.usec(), sec(3).usec());
  EXPECT_EQ(bed.client().data_delivered_in_order(), 2'000'000);
}

// ---------------------------------------------------------------------
// Capped exponential RTO backoff: under a sustained blackhole the
// retransmission timer doubles but never exceeds MptcpSpec's cap, so
// the sender keeps probing at a bounded period (the failover timer the
// chaos invariants rely on).
// ---------------------------------------------------------------------
TEST(FaultInjector, RtoBackoffStaysCappedUnderBlackhole) {
  Simulator sim;
  MptcpSpec s = spec(PathId::kLte, MpMode::kBackup);
  s.subflow_max_rto = sec(2);
  MptcpTestbed bed{sim, basic_setup(), s};
  FaultInjector injector{sim};
  injector.set_target(PathId::kLte, &bed.path(PathId::kLte), &bed.iface(PathId::kLte));
  FaultPlan plan;
  plan.blackhole(msec(500), PathId::kLte);  // never restored
  injector.arm(plan);

  // Upload: the client transmits data through its LTE interface tap, so
  // every RTO-driven retransmission is visible in events(kLte).
  bed.start_transfer(500'000, Direction::kUpload);
  const WatchdogResult result = bed.run_with_watchdog(sec(30), sec(6));
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.reason.find("stall"), std::string::npos) << result.reason;
  EXPECT_LE(result.max_stall.usec(), sec(6).usec());

  // The silent blackhole must not kill the subflow (no RST arrived).
  EXPECT_FALSE(bed.client().subflow_dead(0));
  EXPECT_LE(bed.client().subflow(0).rto().usec(), sec(2).usec());
  EXPECT_GE(bed.client().subflow(0).rto_count(), 3u);

  // Every gap between consecutive data transmissions after the blackhole
  // must respect the cap (2s, plus scheduling slack).
  std::vector<std::int64_t> sends;
  for (const auto& ev : bed.events(PathId::kLte)) {
    if (ev.dir == PacketDir::kSent && ev.payload > 0 &&
        ev.t.usec() > msec(500).usec()) {
      sends.push_back(ev.t.usec());
    }
  }
  ASSERT_GE(sends.size(), 3u);
  for (std::size_t i = 1; i < sends.size(); ++i) {
    EXPECT_LE(sends[i] - sends[i - 1], msec(2500).usec());
  }

  // Abort cleanly: freeze, disarm, drain — no event leak.
  bed.shutdown();
  injector.disarm();
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Regression (found by the chaos soak): soft-downing BOTH paths used to
// read as a clean close — every subflow dead made finished() vacuously
// true — so the run claimed completion with data undelivered.
TEST(FaultInjector, KillingBothPathsIsAFailureNotAFinish) {
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi)};
  FaultInjector injector{sim};
  injector.set_target(PathId::kWifi, &bed.path(PathId::kWifi), &bed.iface(PathId::kWifi));
  injector.set_target(PathId::kLte, &bed.path(PathId::kLte), &bed.iface(PathId::kLte));
  FaultPlan plan;
  plan.soft_down(msec(300), PathId::kWifi).soft_down(msec(400), PathId::kLte);
  injector.arm(plan);
  bed.start_transfer(2'000'000, Direction::kDownload);
  const WatchdogResult result = bed.run_with_watchdog(sec(60), sec(5));
  EXPECT_FALSE(result.completed);
  EXPECT_LT(bed.client().data_delivered_in_order(), 2'000'000);
  bed.shutdown();
  injector.disarm();
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(RunTransportFlow, ReportsStallAndReasonUnderUnrestoredBlackhole) {
  Simulator sim;
  TransportConfig config;
  config.kind = TransportKind::kSinglePath;
  config.path = PathId::kWifi;
  FaultPlan plan;
  plan.blackhole(msec(200), PathId::kWifi);
  TransportRunOptions options;
  options.timeout = sec(60);
  options.stall_limit = sec(5);
  options.faults = &plan;
  const auto r = run_transport_flow(sim, basic_setup(), config, 2'000'000,
                                    Direction::kDownload, options);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.failure_reason.find("stall"), std::string::npos) << r.failure_reason;
  EXPECT_LE(r.max_stall.usec(), sec(5).usec());
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(RunTransportFlow, MptcpFlowSurvivesScriptedFaults) {
  Simulator sim;
  TransportConfig config;
  config.kind = TransportKind::kMptcp;
  config.mp = spec(PathId::kWifi);
  FaultPlan plan;
  plan.blackhole(msec(300), PathId::kWifi).restore(sec(2), PathId::kWifi);
  TransportRunOptions options;
  options.timeout = sec(60);
  options.stall_limit = sec(30);
  options.faults = &plan;
  const auto r = run_transport_flow(sim, basic_setup(), config, 1'000'000,
                                    Direction::kDownload, options);
  EXPECT_TRUE(r.completed) << r.failure_reason;
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace mn
