#include "mptcp/mptcp_agent.hpp"

#include <gtest/gtest.h>

#include <cstdint>

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

MptcpSpec spec(PathId primary, CcAlgo cc = CcAlgo::kDecoupled,
               MpMode mode = MpMode::kFull) {
  MptcpSpec s;
  s.primary = primary;
  s.cc = cc;
  s.mode = mode;
  return s;
}

TEST(MptcpAgent, EstablishesBothSubflows) {
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi)};
  bed.start_transfer(100'000, Direction::kDownload);
  sim.run_until(TimePoint{sec(2).usec()});
  EXPECT_TRUE(bed.client().subflow(0).established() ||
              bed.client().subflow(0).state() == TcpState::kDone);
  EXPECT_TRUE(bed.client().subflow(1).established() ||
              bed.client().subflow(1).state() == TcpState::kDone);
}

TEST(MptcpAgent, PrimarySubflowRidesThePrimaryNetwork) {
  Simulator sim;
  MptcpTestbed wifi_bed{sim, basic_setup(), spec(PathId::kWifi)};
  EXPECT_EQ(wifi_bed.client().subflow_path(0), PathId::kWifi);
  EXPECT_EQ(wifi_bed.client().subflow_path(1), PathId::kLte);
  Simulator sim2;
  MptcpTestbed lte_bed{sim2, basic_setup(), spec(PathId::kLte)};
  EXPECT_EQ(lte_bed.client().subflow_path(0), PathId::kLte);
  EXPECT_EQ(lte_bed.client().subflow_path(1), PathId::kWifi);
}

TEST(MptcpAgent, DownloadDeliversAllDataAcrossSubflows) {
  Simulator sim;
  const auto r =
      run_mptcp_flow(sim, basic_setup(), spec(PathId::kWifi), 1'000'000,
                     Direction::kDownload);
  EXPECT_TRUE(r.completed);
  // Both subflows must have carried data in Full-MPTCP mode.
  EXPECT_FALSE(r.subflow_timelines[0].empty());
  EXPECT_FALSE(r.subflow_timelines[1].empty());
  EXPECT_GT(r.subflow_timelines[0].back().bytes, 100'000);
  EXPECT_GT(r.subflow_timelines[1].back().bytes, 100'000);
}

TEST(MptcpAgent, UploadCompletesToo) {
  Simulator sim;
  const auto r = run_mptcp_flow(sim, basic_setup(), spec(PathId::kLte), 500'000,
                                Direction::kUpload);
  EXPECT_TRUE(r.completed);
}

TEST(MptcpAgent, AggregatesCapacityOfBothLinks) {
  // 8 + 8 Mbit/s should beat either link alone for a long flow.
  Simulator sim;
  const auto r = run_mptcp_flow(sim, basic_setup(8, 8), spec(PathId::kWifi),
                                4'000'000, Direction::kDownload);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.throughput_mbps, 9.0);
}

TEST(MptcpAgent, ShortFlowStaysNearPrimaryPerformance) {
  // A 10 KB flow finishes before the secondary subflow matters much.
  Simulator sim;
  const auto r = run_mptcp_flow(sim, basic_setup(), spec(PathId::kWifi), 10'000,
                                Direction::kDownload);
  ASSERT_TRUE(r.completed);
  // Must complete within a few WiFi RTTs (20 ms each).
  EXPECT_LT(r.completion_time.usec(), msec(200).usec());
}

TEST(MptcpAgent, PrimaryEstablishmentRecordsHandshake) {
  Simulator sim;
  const auto r = run_mptcp_flow(sim, basic_setup(), spec(PathId::kLte), 10'000,
                                Direction::kDownload);
  // LTE one-way delay is 30 ms: the primary handshake takes >= 60 ms.
  EXPECT_GE(r.primary_established.usec(), msec(60).usec());
  EXPECT_LT(r.primary_established.usec(), msec(80).usec());
}

TEST(MptcpAgent, DataLevelTimelineIsMonotone) {
  Simulator sim;
  const auto r = run_mptcp_flow(sim, basic_setup(), spec(PathId::kWifi), 500'000,
                                Direction::kDownload);
  ASSERT_TRUE(r.completed);
  for (std::size_t i = 1; i < r.timeline.size(); ++i) {
    EXPECT_LE(r.timeline[i - 1].t, r.timeline[i].t);
    EXPECT_LT(r.timeline[i - 1].bytes, r.timeline[i].bytes);
  }
  EXPECT_EQ(r.timeline.back().bytes, 500'000);
}

TEST(MptcpAgent, BackupModeKeepsDataOffTheBackupPath) {
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi, CcAlgo::kDecoupled,
                                            MpMode::kBackup)};
  bed.start_transfer(500'000, Direction::kDownload);
  EXPECT_TRUE(bed.run_until_finished(sec(30)));
  // The backup (LTE) interface saw only control packets: SYN/FIN/ACKs.
  for (const auto& ev : bed.events(PathId::kLte)) {
    EXPECT_EQ(ev.payload, 0) << "data leaked onto the backup path";
  }
  // And it did see the handshake + teardown (paper Fig 15c/d).
  bool saw_syn = false;
  bool saw_fin = false;
  for (const auto& ev : bed.events(PathId::kLte)) {
    saw_syn |= ev.flags.syn;
    saw_fin |= ev.flags.fin;
  }
  EXPECT_TRUE(saw_syn);
  EXPECT_TRUE(saw_fin);
}

TEST(MptcpAgent, BackupModeSoftFailoverMovesData) {
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi, CcAlgo::kDecoupled,
                                            MpMode::kBackup)};
  bed.start_transfer(2'000'000, Direction::kDownload);
  // Disable the active (WiFi) path mid-flow via "multipath off".
  sim.schedule_at(TimePoint{msec(400).usec()}, [&] {
    bed.iface(PathId::kWifi).disable_soft();
  });
  EXPECT_TRUE(bed.run_until_finished(sec(60)));
  EXPECT_EQ(bed.client().data_delivered_in_order(), 2'000'000);
  // LTE must have carried real data after the failover.
  std::int64_t lte_payload = 0;
  for (const auto& ev : bed.events(PathId::kLte)) lte_payload += ev.payload;
  EXPECT_GT(lte_payload, 500'000);
}

TEST(MptcpAgent, SilentUnplugOfPrimaryStallsUntilReplug) {
  // Paper Figure 15g: LTE primary (tethered, no carrier-loss reporting),
  // WiFi backup.  Unplugging LTE stalls the transfer; replug resumes it.
  Simulator sim;
  MpNetworkSetup setup = basic_setup();
  MptcpTestbed bed{sim, setup, spec(PathId::kLte, CcAlgo::kDecoupled, MpMode::kBackup)};
  bed.start_transfer(2'000'000, Direction::kDownload);
  sim.schedule_at(TimePoint{msec(300).usec()}, [&] { bed.iface(PathId::kLte).unplug(); });
  // Run a while with LTE dead: WiFi must NOT take over (no notification).
  sim.run_until(TimePoint{sec(5).usec()});
  std::int64_t wifi_payload = 0;
  for (const auto& ev : bed.events(PathId::kWifi)) wifi_payload += ev.payload;
  EXPECT_EQ(wifi_payload, 0) << "backup activated despite silent failure";
  EXPECT_LT(bed.client().data_delivered_in_order(), 2'000'000);
  // Replug: the transfer resumes on LTE and completes.
  bed.iface(PathId::kLte).plug_in();
  EXPECT_TRUE(bed.run_until_finished(sec(120)));
  EXPECT_EQ(bed.client().data_delivered_in_order(), 2'000'000);
}

TEST(MptcpAgent, CarrierLossUnplugOfPrimaryFailsOverImmediately) {
  // Paper Figure 15h: WiFi primary (carrier loss visible), LTE backup.
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi, CcAlgo::kDecoupled,
                                            MpMode::kBackup)};
  bed.start_transfer(2'000'000, Direction::kDownload);
  sim.schedule_at(TimePoint{msec(300).usec()}, [&] { bed.iface(PathId::kWifi).unplug(); });
  EXPECT_TRUE(bed.run_until_finished(sec(60)));
  EXPECT_EQ(bed.client().data_delivered_in_order(), 2'000'000);
}

TEST(MptcpAgent, FullModeSurvivesOnePathSoftFailure) {
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi)};
  bed.start_transfer(2'000'000, Direction::kDownload);
  sim.schedule_at(TimePoint{msec(300).usec()}, [&] {
    bed.iface(PathId::kLte).disable_soft();
  });
  EXPECT_TRUE(bed.run_until_finished(sec(60)));
  EXPECT_EQ(bed.client().data_delivered_in_order(), 2'000'000);
}

TEST(MptcpAgent, SinglePathModeOpensSecondSubflowOnlyOnFailure) {
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi, CcAlgo::kDecoupled,
                                            MpMode::kSinglePath)};
  bed.start_transfer(1'000'000, Direction::kDownload);
  sim.run_until(TimePoint{msec(300).usec()});
  // No traffic at all on LTE yet (not even a handshake).
  EXPECT_TRUE(bed.events(PathId::kLte).empty());
  bed.iface(PathId::kWifi).disable_soft();
  EXPECT_TRUE(bed.run_until_finished(sec(60)));
  EXPECT_EQ(bed.client().data_delivered_in_order(), 1'000'000);
  EXPECT_FALSE(bed.events(PathId::kLte).empty());
}

TEST(MptcpAgent, ReinjectionDeduplicatesAtReceiver) {
  Simulator sim;
  MptcpTestbed bed{sim, basic_setup(), spec(PathId::kWifi)};
  bed.start_transfer(1'000'000, Direction::kDownload);
  sim.schedule_at(TimePoint{msec(250).usec()}, [&] {
    bed.iface(PathId::kWifi).disable_soft();
  });
  ASSERT_TRUE(bed.run_until_finished(sec(60)));
  // Exactly the flow size delivered at data level, never more.
  EXPECT_EQ(bed.client().data_delivered(), 1'000'000);
  EXPECT_EQ(bed.client().data_delivered_in_order(), 1'000'000);
}

// Parameterized sweep over all 2x2x2 MPTCP configurations: every
// combination must complete a mid-size transfer in both directions.
// gtest names each case after the raw bytes of its parameter, so the
// struct must have no padding: uninitialised padding bytes would make the
// case names change from one test discovery to the next.
struct ConfigCase {
  PathId primary;
  CcAlgo cc;
  std::int32_t upload;
};
static_assert(sizeof(ConfigCase) == 12);

class MptcpConfigSweep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(MptcpConfigSweep, TransferCompletes) {
  const auto& c = GetParam();
  Simulator sim;
  MptcpSpec s = spec(c.primary, c.cc);
  const auto r = run_mptcp_flow(sim, basic_setup(12, 6), s, 300'000,
                                c.upload ? Direction::kUpload : Direction::kDownload);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.throughput_mbps, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MptcpConfigSweep,
    ::testing::Values(ConfigCase{PathId::kWifi, CcAlgo::kDecoupled, false},
                      ConfigCase{PathId::kWifi, CcAlgo::kCoupled, false},
                      ConfigCase{PathId::kLte, CcAlgo::kDecoupled, false},
                      ConfigCase{PathId::kLte, CcAlgo::kCoupled, false},
                      ConfigCase{PathId::kWifi, CcAlgo::kDecoupled, true},
                      ConfigCase{PathId::kWifi, CcAlgo::kCoupled, true},
                      ConfigCase{PathId::kLte, CcAlgo::kDecoupled, true},
                      ConfigCase{PathId::kLte, CcAlgo::kCoupled, true}));

}  // namespace
}  // namespace mn
