// The negotiation/fallback state machine under a middlebox adversary:
// kNegotiating -> kMultipath | kFallbackTcp | kSubflowRejected, with
// graceful degradation to plain TCP instead of stalls.
#include <gtest/gtest.h>

#include "mptcp/testbed.hpp"
#include "tcp/flow.hpp"

namespace mn {
namespace {

LinkSpec mk(double mbps, Duration delay, int queue = 64) {
  LinkSpec s;
  s.rate_mbps = mbps;
  s.one_way_delay = delay;
  s.queue_packets = queue;
  return s;
}

MpNetworkSetup net_with_wifi_box(const MiddleboxSpec& box) {
  auto net = symmetric_setup(mk(10, msec(10)), mk(5, msec(30)));
  net.paths[PathId::kWifi].up.middlebox = box;
  net.paths[PathId::kWifi].down.middlebox = box;
  return net;
}

MpNetworkSetup net_with_lte_box(const MiddleboxSpec& box) {
  auto net = symmetric_setup(mk(10, msec(10)), mk(5, msec(30)));
  net.paths[PathId::kLte].up.middlebox = box;
  net.paths[PathId::kLte].down.middlebox = box;
  return net;
}

MptcpFlowResult run(const MpNetworkSetup& net, const MptcpSpec& spec,
                    std::int64_t bytes, const FlowRunOptions& fo = {}) {
  Simulator sim;
  return run_mptcp_flow(sim, net, spec, bytes, Direction::kDownload, fo);
}

TEST(MiddleboxFallback, CleanPathNegotiatesAndAchievesMultipath) {
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  const auto r = run(symmetric_setup(mk(10, msec(10)), mk(5, msec(30))), spec, 500'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_EQ(r.negotiation, MpNegotiation::kMultipath);
  EXPECT_TRUE(r.negotiated_mp);
  EXPECT_TRUE(r.achieved_mp);
  EXPECT_EQ(r.fallback_reason, "");
}

TEST(MiddleboxFallback, StrippedCapableDegradesToPlainTcp) {
  MiddleboxSpec box;
  box.strip_capable = 1.0;
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  const auto r = run(net_with_wifi_box(box), spec, 500'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_EQ(r.negotiation, MpNegotiation::kFallbackTcp);
  EXPECT_FALSE(r.negotiated_mp);
  EXPECT_FALSE(r.achieved_mp);
  EXPECT_EQ(r.fallback_reason, "capable_stripped");
  EXPECT_GT(r.throughput_mbps, 0.0);
}

TEST(MiddleboxFallback, DroppedSynRetriesWithoutOptionsAndConnects) {
  // A paranoid ALG eats every SYN carrying MPTCP options: the endpoint
  // must stop offering MP_CAPABLE after its retry budget and connect as
  // plain TCP instead of retrying the doomed SYN forever.
  MiddleboxSpec box;
  box.drop_unknown_syn = 1.0;
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  const auto r = run(net_with_wifi_box(box), spec, 300'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_EQ(r.negotiation, MpNegotiation::kFallbackTcp);
  EXPECT_FALSE(r.negotiated_mp);
  EXPECT_EQ(r.fallback_reason, "syn_dropped");
}

TEST(MiddleboxFallback, StrippedJoinRejectsSubflowButKeepsPrimary) {
  // MP_CAPABLE survives (clean WiFi) but the LTE path's box strips every
  // MP_JOIN: negotiated but never achieved — the Aschenbrenner split.
  MiddleboxSpec box;
  box.strip_join = 1.0;
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  // Long enough that the flow is still open when the join retry ladder
  // exhausts (stripped retries wait out the full join timeout before
  // failing) — short flows close first and record nothing, which is
  // correct but not what this test probes.
  const auto r = run(net_with_lte_box(box), spec, 12'000'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_EQ(r.negotiation, MpNegotiation::kSubflowRejected);
  EXPECT_TRUE(r.negotiated_mp);
  EXPECT_FALSE(r.achieved_mp);
  EXPECT_EQ(r.fallback_reason, "join_rejected");
  // Every allowed attempt was made (capped backoff), then we gave up.
  EXPECT_EQ(r.join_attempts, kJoinMaxAttempts);
}

TEST(MiddleboxFallback, MidFlowMangleDrainsOnSurvivingSubflow) {
  // Both subflows join; 300 ms in, a sequence-rewriting box appears on
  // LTE.  The receiver cannot place LTE's data any more, signals
  // MP_FAIL, and the sender must kill the poisoned subflow and drain
  // everything (including falsely subflow-acked ranges) on WiFi.
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  Simulator sim;
  const auto net = symmetric_setup(mk(10, msec(10)), mk(5, msec(30)));
  FlowRunOptions fo;
  fo.on_testbed = [&sim](MptcpTestbed& bed) {
    sim.schedule_at(TimePoint{msec(300).usec()}, [&bed] {
      MiddleboxSpec box;
      box.rewrite_seq = 1.0;
      bed.path(PathId::kLte).uplink().set_middlebox(box);
      bed.path(PathId::kLte).downlink().set_middlebox(box);
    });
  };
  const auto r = run_mptcp_flow(sim, net, spec, 2'000'000, Direction::kDownload, fo);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_TRUE(r.achieved_mp);  // multipath worked until the box appeared
  EXPECT_EQ(r.fallback_reason, "mid_flow_dss");
}

TEST(MiddleboxFallback, SoleSubflowMangleContinuesAsPlainTcp) {
  // Single-path mode, so subflow 0 is the only one.  When its DSS dies
  // mid-flow there is nothing to fail over to: both ends must degrade
  // to sequence-space accounting and finish as a plain TCP stream.
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  spec.mode = MpMode::kSinglePath;
  Simulator sim;
  const auto net = symmetric_setup(mk(10, msec(10)), mk(5, msec(30)));
  FlowRunOptions fo;
  fo.on_testbed = [&sim](MptcpTestbed& bed) {
    sim.schedule_at(TimePoint{msec(300).usec()}, [&bed] {
      MiddleboxSpec box;
      box.rewrite_seq = 1.0;
      bed.path(PathId::kWifi).uplink().set_middlebox(box);
      bed.path(PathId::kWifi).downlink().set_middlebox(box);
    });
  };
  const auto r = run_mptcp_flow(sim, net, spec, 1'000'000, Direction::kDownload, fo);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_EQ(r.fallback_reason, "mid_flow_dss");
  EXPECT_EQ(r.negotiation, MpNegotiation::kFallbackTcp);
}

TEST(MiddleboxFallback, FallbackMatchesSinglePathTcpThroughput) {
  // The bulk-flow regression bar: a stripped-to-fallback MPTCP flow must
  // achieve at least equivalent single-path TCP throughput on the same
  // WiFi link (it IS a plain TCP flow after the handshake).
  const LinkSpec wifi = mk(10, msec(10));
  double tcp_mbps = 0.0;
  {
    Simulator sim;
    DuplexPath path{sim, wifi, wifi};
    const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kDownload);
    ASSERT_TRUE(r.completed);
    tcp_mbps = r.throughput_mbps;
  }
  MiddleboxSpec box;
  box.strip_capable = 1.0;
  MptcpSpec spec;
  spec.primary = PathId::kWifi;
  const auto r = run(net_with_wifi_box(box), spec, 1'000'000);
  ASSERT_TRUE(r.completed) << r.failure_reason;
  EXPECT_EQ(r.negotiation, MpNegotiation::kFallbackTcp);
  EXPECT_GE(r.throughput_mbps, 0.95 * tcp_mbps);
}

TEST(MiddleboxFallback, NoHangForAnyHandshakeInterference) {
  // Sweep every box-policy combination over both paths: no combination
  // may stall the flow — each either multipaths, degrades, or rejects
  // the join, and always terminates within the watchdog.
  for (const bool capable : {false, true}) {
    for (const bool join : {false, true}) {
      for (const bool drop : {false, true}) {
        MiddleboxSpec box;
        box.strip_capable = capable ? 1.0 : 0.0;
        box.strip_join = join ? 1.0 : 0.0;
        box.drop_unknown_syn = drop ? 1.0 : 0.0;
        MptcpSpec spec;
        spec.primary = PathId::kWifi;
        auto net = symmetric_setup(mk(10, msec(10)), mk(5, msec(30)));
        for (const PathId p : kPaths) {
          net.paths[p].up.middlebox = box;
          net.paths[p].down.middlebox = box;
        }
        const auto r = run(net, spec, 200'000);
        ASSERT_TRUE(r.completed)
            << "capable=" << capable << " join=" << join << " drop=" << drop
            << " reason=" << r.failure_reason;
        if (capable || drop) {
          EXPECT_FALSE(r.negotiated_mp);
        }
        if (capable || join || drop) {
          EXPECT_FALSE(r.achieved_mp);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mn
