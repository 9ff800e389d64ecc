// The pluggable scheduler/path-policy layer: every policy completes,
// the redundant policy never overcounts delivery, the energy policies
// gate the LTE radio without ever deadlocking a flow, and the testbed
// surfaces run timeouts instead of reading them as completions.
#include <gtest/gtest.h>

#include "mptcp/scheduler.hpp"
#include "mptcp/testbed.hpp"
#include "obs/obs.hpp"

namespace mn {
namespace {

LinkSpec mk(double mbps, Duration delay, int queue = 64) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = queue;
  return s;
}

MptcpFlowResult run(const MpNetworkSetup& net, MptcpSpec spec, std::int64_t bytes) {
  Simulator sim;
  return run_mptcp_flow(sim, net, spec, bytes, Direction::kDownload, sec(120));
}

std::int64_t subflow_bytes(const MptcpFlowResult& r, int subflow) {
  const auto& tl = r.subflow_timelines[static_cast<std::size_t>(subflow)];
  return tl.empty() ? 0 : tl.back().bytes;
}

TEST(Scheduler, AllFivePoliciesCompleteTransfers) {
  const auto net = symmetric_setup(mk(8, msec(10)), mk(6, msec(30)));
  for (int i = 0; i < kMpSchedulerCount; ++i) {
    MptcpSpec spec;
    spec.scheduler = static_cast<MpScheduler>(i);
    const auto r = run(net, spec, 600'000);
    EXPECT_TRUE(r.completed) << to_string(spec.scheduler) << ": " << r.failure_reason;
    EXPECT_EQ(r.scheduler, spec.scheduler);
  }
}

TEST(Scheduler, NamesRoundTripThroughParse) {
  for (int i = 0; i < kMpSchedulerCount; ++i) {
    const auto s = static_cast<MpScheduler>(i);
    const auto parsed = parse_scheduler(to_string(s));
    ASSERT_TRUE(parsed.has_value()) << to_string(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_scheduler("NoSuchPolicy").has_value());
  EXPECT_FALSE(parse_scheduler("").has_value());
}

TEST(Scheduler, PoliciesAreDeterministic) {
  const auto net = symmetric_setup(mk(10, msec(8)), mk(4, msec(40)));
  for (MpScheduler s : {MpScheduler::kLowestRtt, MpScheduler::kRedundant,
                        MpScheduler::kEnergyAware}) {
    MptcpSpec spec;
    spec.scheduler = s;
    const auto a = run(net, spec, 800'000);
    const auto b = run(net, spec, 800'000);
    EXPECT_EQ(a.completion_time.usec(), b.completion_time.usec()) << to_string(s);
    EXPECT_EQ(subflow_bytes(a, 0), subflow_bytes(b, 0)) << to_string(s);
    EXPECT_EQ(subflow_bytes(a, 1), subflow_bytes(b, 1)) << to_string(s);
  }
}

TEST(Scheduler, RedundantDuplicatesWithoutOvercounting) {
  const auto net = symmetric_setup(mk(8, msec(10)), mk(8, msec(25)));
  MptcpSpec spec;
  spec.scheduler = MpScheduler::kRedundant;
  const auto r = run(net, spec, 1'000'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  // Duplication is real: the two subflows together deliver more than
  // the flow (the client's interval set deduplicates; the app sees
  // exactly the flow — completion at 1 MB proves no overcount).
  EXPECT_GT(subflow_bytes(r, 0) + subflow_bytes(r, 1), 1'100'000);
  EXPECT_GT(subflow_bytes(r, 0), 100'000);
  EXPECT_GT(subflow_bytes(r, 1), 100'000);
}

TEST(Scheduler, RedundantMasksSilentPathDeath) {
  // With every grant mirrored, losing one path mid-flow costs nothing:
  // the survivor already holds duplicates of the stranded chunks.
  Simulator sim;
  const auto net = symmetric_setup(mk(10, msec(10)), mk(5, msec(30)));
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.scheduler = MpScheduler::kRedundant;
  MptcpTestbed bed{sim, net, spec};
  bed.start_transfer(1'000'000, Direction::kDownload);
  sim.schedule_at(TimePoint{msec(300).usec()},
                  [&bed] { bed.iface(PathId::kLte).unplug(); });
  // The dead subflow's close can outlive the data (RTO ladder); the
  // claim under test is that every byte still arrives promptly.
  (void)bed.run_until_finished(sec(30));
  EXPECT_EQ(bed.client().data_delivered_in_order(), 1'000'000);
}

TEST(Scheduler, EnergyAwareShortFlowNeverWakesLte) {
  const auto net = symmetric_setup(mk(10, msec(10)), mk(8, msec(30)));
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.scheduler = MpScheduler::kEnergyAware;  // engage at 512 kB default
  const auto r = run(net, spec, 100'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_FALSE(r.achieved_mp) << "LTE joined for a flow far below the engage gate";
  EXPECT_LT(r.energy_j[PathId::kLte], 0.01);
  EXPECT_GT(r.energy_j[PathId::kWifi], 0.0);
}

TEST(Scheduler, EnergyAwareLongFlowEngagesLte) {
  const auto net = symmetric_setup(mk(10, msec(10)), mk(8, msec(30)));
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.scheduler = MpScheduler::kEnergyAware;
  const auto r = run(net, spec, 2'000'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_TRUE(r.achieved_mp) << "the flow proved itself big; LTE should engage";
  // LTE carried data and paid (at least) one 15 s tail.
  EXPECT_GT(subflow_bytes(r, 1), 50'000);
  EXPECT_GT(r.energy_j[PathId::kLte], 10.0);
}

TEST(Scheduler, EnergyAwareEngageThresholdIsTunable) {
  const auto net = symmetric_setup(mk(10, msec(10)), mk(8, msec(30)));
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.scheduler = MpScheduler::kEnergyAware;
  spec.energy_engage_bytes = 10'000;  // tiny gate: even 100 kB engages
  const auto r = run(net, spec, 100'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_TRUE(r.achieved_mp);
}

TEST(Scheduler, EnergyAwareFailsOverWhenPrimaryDies) {
  // The failover guard: a policy hoarding the LTE radio must release it
  // the moment WiFi is the flow's only casualty, not its only hope.
  Simulator sim;
  const auto net = symmetric_setup(mk(10, msec(10)), mk(5, msec(30)));
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.scheduler = MpScheduler::kEnergyAware;
  spec.energy_engage_bytes = std::int64_t{1} << 40;  // never engage by size
  MptcpTestbed bed{sim, net, spec};
  bed.start_transfer(1'000'000, Direction::kDownload);
  sim.schedule_at(TimePoint{msec(200).usec()},
                  [&bed] { bed.iface(PathId::kWifi).unplug(); });
  EXPECT_TRUE(bed.run_until_finished(sec(60)));
  EXPECT_EQ(bed.client().data_delivered_in_order(), 1'000'000);
}

TEST(Scheduler, TailBatchSmallFlowStaysOffCostlyRadio) {
  const auto net = symmetric_setup(mk(10, msec(10)), mk(8, msec(30)));
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.scheduler = MpScheduler::kTailBatch;  // open at 256 kB default
  const auto r = run(net, spec, 100'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  // LTE may join (TailBatch gates grants, not joins) but the backlog
  // never justified waking it for data.
  EXPECT_LT(subflow_bytes(r, 1), 10'000);
}

TEST(Scheduler, TailBatchLargeBacklogOpensTheGate) {
  const auto net = symmetric_setup(mk(10, msec(10)), mk(8, msec(30)));
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.scheduler = MpScheduler::kTailBatch;
  const auto r = run(net, spec, 2'000'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_GT(subflow_bytes(r, 1), 100'000);
}

TEST(Scheduler, LowestRttFavorsNearPathOverRoundRobin) {
  // The legacy behavioural contract, restated against the strategy
  // objects: with asymmetric RTTs, lowest-RTT loads the near path at
  // least as much as round-robin does.
  const auto net = symmetric_setup(mk(10, msec(5)), mk(10, msec(60)));
  MptcpSpec lr;
  lr.scheduler = MpScheduler::kLowestRtt;
  MptcpSpec rr = lr;
  rr.scheduler = MpScheduler::kRoundRobin;
  const auto a = run(net, lr, 2'000'000);
  const auto b = run(net, rr, 2'000'000);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  const auto share = [](const MptcpFlowResult& r) {
    const double near = static_cast<double>(subflow_bytes(r, 0));
    const double far = static_cast<double>(subflow_bytes(r, 1));
    return near / (near + far);
  };
  EXPECT_GE(share(a), share(b) - 0.05);
}

TEST(Scheduler, RunTimeoutIsSurfacedAndCounted) {
  Simulator sim;
  obs::ObsHub hub;
  sim.set_obs(&hub);
  const auto net = symmetric_setup(mk(1, msec(10)), mk(1, msec(30)));
  MptcpTestbed bed{sim, net, MptcpSpec{}};
  bed.start_transfer(10'000'000, Direction::kDownload);  // ~40 s at 2 Mbit/s
  EXPECT_FALSE(bed.run_until_finished(msec(500)));
  EXPECT_EQ(hub.snapshot().value_of("mptcp.run_timeouts"), 1);
  // Finishing later does not retroactively count another timeout.
  EXPECT_TRUE(bed.run_until_finished(sec(120)));
  EXPECT_EQ(hub.snapshot().value_of("mptcp.run_timeouts"), 1);
}

}  // namespace
}  // namespace mn
