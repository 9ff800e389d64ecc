#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "obs/obs.hpp"

namespace mn {
namespace {

LinkSpec mk(double mbps, Duration delay) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = 64;
  return s;
}

MpNetworkSetup net(double wifi = 10, double lte = 8) {
  return symmetric_setup(mk(wifi, msec(10)), mk(lte, msec(30)));
}

TEST(RunTransportFlow, SinglePathUsesOnlyThatNetwork) {
  Simulator sim;
  const auto r = run_transport_flow(sim, net(), TransportConfig::single_path(PathId::kWifi),
                                    500'000, Direction::kDownload);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.subflow_timelines[0].empty());
  EXPECT_TRUE(r.subflow_timelines[1].empty());
}

TEST(RunTransportFlow, MptcpFillsSubflowTimelines) {
  Simulator sim;
  const auto r = run_transport_flow(sim, net(),
                                    TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled),
                                    500'000, Direction::kDownload);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.subflow_timelines[0].empty());
  EXPECT_EQ(r.subflow_paths[0], PathId::kWifi);
  EXPECT_EQ(r.subflow_paths[1], PathId::kLte);
}

TEST(RunTransportFlow, SinglePathOnSlowerLinkIsSlower) {
  Simulator a;
  const auto wifi = run_transport_flow(a, net(12, 3),
                                       TransportConfig::single_path(PathId::kWifi),
                                       1'000'000, Direction::kDownload);
  Simulator b;
  const auto lte = run_transport_flow(b, net(12, 3),
                                      TransportConfig::single_path(PathId::kLte),
                                      1'000'000, Direction::kDownload);
  ASSERT_TRUE(wifi.completed);
  ASSERT_TRUE(lte.completed);
  EXPECT_GT(wifi.throughput_mbps, lte.throughput_mbps);
}

TEST(SweepFlowSizes, ReturnsOnePointPerSize) {
  const std::vector<std::int64_t> sizes{10'000, 100'000, 1'000'000};
  const auto points = sweep_flow_sizes(net(), TransportConfig::single_path(PathId::kWifi),
                                       sizes);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(points[i].flow_bytes, sizes[i]);
    EXPECT_GT(points[i].throughput_mbps, 0.0);
  }
  // Larger flows amortize the handshake: throughput grows with size.
  EXPECT_LT(points[0].throughput_mbps, points[2].throughput_mbps);
}

TEST(SweepFlowSizes, DeterministicAcrossCalls) {
  const std::vector<std::int64_t> sizes{50'000};
  const auto cfg = TransportConfig::mptcp(PathId::kLte, CcAlgo::kDecoupled);
  const auto a = sweep_flow_sizes(net(), cfg, sizes);
  const auto b = sweep_flow_sizes(net(), cfg, sizes);
  EXPECT_DOUBLE_EQ(a[0].throughput_mbps, b[0].throughput_mbps);
}

// Braced empty options are the default options: they sweep downloads.
// The uplinks are far slower than the downlinks, so an upload sweep shows.
TEST(SweepFlowSizes, BracedOptionsSweepDownloads) {
  auto setup = net();
  for (PathId p : kPaths) setup.paths[p].up.rate_mbps = 2.0;
  const std::vector<std::int64_t> sizes{200'000};
  const auto cfg = TransportConfig::single_path(PathId::kWifi);
  const auto braced = sweep_flow_sizes(setup, cfg, sizes, {});
  const auto defaulted = sweep_flow_sizes(setup, cfg, sizes);
  const auto download =
      sweep_flow_sizes(setup, cfg, sizes, SweepOptions{.dir = Direction::kDownload});
  EXPECT_EQ(braced[0].throughput_mbps, download[0].throughput_mbps);
  EXPECT_EQ(defaulted[0].throughput_mbps, download[0].throughput_mbps);
  EXPECT_EQ(braced[0].completion_time.millis(), download[0].completion_time.millis());
}

// Golden determinism check of the parallel sweep: every point is a pure
// function of (net, config, size, dir), so the worker count must never
// change a bit of any result.
TEST(SweepFlowSizes, ParallelSweepIsBitIdenticalToSerial) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t kb = 20; kb <= 200; kb += 20) sizes.push_back(kb * 1000);
  const auto cfg = TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled);
  SweepOptions options;
  options.parallelism = 0;
  const auto serial = sweep_flow_sizes(net(), cfg, sizes, options);
  for (int workers : {1, 4}) {
    options.parallelism = workers;
    const auto parallel = sweep_flow_sizes(net(), cfg, sizes, options);
    ASSERT_EQ(parallel.size(), serial.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].flow_bytes, serial[i].flow_bytes);
      EXPECT_EQ(parallel[i].throughput_mbps, serial[i].throughput_mbps)
          << "workers=" << workers << " size=" << sizes[i];
      EXPECT_EQ(parallel[i].completion_time.millis(), serial[i].completion_time.millis());
    }
  }
}

// Failure semantics shared by both transports: which reason a failed flow
// reports, what its clock reads and when the simulator stops.  Single-path
// TCP and MPTCP run the same watchdog and the same completion rule.
struct FailedFlow {
  TransportFlowResult result;
  TimePoint stopped_at;
  std::int64_t run_timeouts = 0;
};

FailedFlow run_failing_flow(const TransportConfig& config, double mbps, const FaultPlan* faults,
                            Duration timeout, Duration stall_limit) {
  obs::ObsHub hub;
  Simulator sim;
  sim.set_obs(&hub);
  const LinkSpec link = mk(mbps, msec(20));
  TransportRunOptions options;
  options.timeout = timeout;
  options.stall_limit = stall_limit;
  options.faults = faults;
  FailedFlow out;
  out.result = run_transport_flow(sim, symmetric_setup(link, link), config, 4'000'000,
                                  Direction::kDownload, options);
  out.stopped_at = sim.now();
  out.run_timeouts = hub.metrics().value(hub.ids().mptcp_run_timeouts);
  return out;
}

const TransportConfig kFailureConfigs[] = {
    TransportConfig::single_path(PathId::kWifi),
    TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled),
};

TEST(RunTransportFlow, StallFailsAtTheStallLimitForBothTransports) {
  FaultPlan plan;
  plan.blackhole(msec(500), PathId::kWifi).blackhole(msec(500), PathId::kLte);
  for (const TransportConfig& config : kFailureConfigs) {
    SCOPED_TRACE(config.kind == TransportKind::kMptcp ? "mptcp" : "tcp");
    const FailedFlow f = run_failing_flow(config, 10, &plan, sec(60), sec(5));
    EXPECT_FALSE(f.result.completed);
    EXPECT_EQ(f.result.failure_reason, "stall: no progress for 5000 ms");
    EXPECT_EQ(f.result.completion_time.usec(), sec(60).usec());
    EXPECT_EQ(f.result.max_stall.usec(), sec(5).usec());
    EXPECT_EQ(f.stopped_at.usec(), 5'582'610);
    EXPECT_EQ(f.run_timeouts, 0);
  }
}

TEST(RunTransportFlow, TimeoutFailsAtTheTimeoutForBothTransports) {
  for (const TransportConfig& config : kFailureConfigs) {
    const bool mptcp = config.kind == TransportKind::kMptcp;
    SCOPED_TRACE(mptcp ? "mptcp" : "tcp");
    const FailedFlow f = run_failing_flow(config, 0.5, nullptr, sec(5), sec(30));
    EXPECT_FALSE(f.result.completed);
    EXPECT_EQ(f.result.failure_reason, "timeout");
    EXPECT_EQ(f.result.completion_time.usec(), sec(5).usec());
    // Only the MPTCP testbed counts its timed-out runs.
    EXPECT_EQ(f.run_timeouts, mptcp ? 1 : 0);
  }
}

}  // namespace
}  // namespace mn
