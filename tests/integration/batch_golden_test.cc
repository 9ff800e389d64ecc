// Golden scalar-vs-batched determinism: batch dispatch (sink spans in
// the engine, sweep delivery in the net layer, on_packets() at the
// endpoints) is a pure mechanism change — every observable output must
// be byte-identical to scalar dispatch at any batch width, worker
// count included.
//
// Scalar mode is forced two ways, matching how users reach it:
// set_batch_dispatch(false) on a simulator owned by the test, and the
// MN_SCALAR_DISPATCH=1 environment hook for simulators constructed
// deep inside the campaign machinery.
//
// What "output" means here: result structs, timelines and campaign CSV
// bytes.  Flight-recorder *intra-tick event order* is deliberately NOT
// compared — a batched sink delivers its span after every item in it
// is retired, so obs events within one tick may interleave differently
// while every per-tick count and every (time, seq) pair stays equal
// (see DESIGN.md on the determinism contract).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "measure/campaign.hpp"
#include "measure/world.hpp"
#include "mptcp/testbed.hpp"
#include "tcp/flow.hpp"
#include "util/units.hpp"

namespace mn {
namespace {

/// RAII MN_SCALAR_DISPATCH=1 (read by every Simulator constructor).
struct ScopedScalarDispatch {
  ScopedScalarDispatch() { ::setenv("MN_SCALAR_DISPATCH", "1", 1); }
  ~ScopedScalarDispatch() { ::unsetenv("MN_SCALAR_DISPATCH"); }
};

std::string timeline_str(const std::vector<TimelinePoint>& tl) {
  std::ostringstream out;
  for (const auto& pt : tl) out << pt.t.usec() << ":" << pt.bytes << ";";
  return out.str();
}

std::string flow_signature(const FlowResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.completed << "|" << r.throughput_mbps << "|" << r.completion_time.usec()
      << "|" << r.syn_rtt.usec() << "|" << r.max_stall.usec() << "|" << r.retransmits
      << "|" << r.failure_reason << "|" << timeline_str(r.timeline);
  return out.str();
}

std::string mptcp_signature(const MptcpFlowResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.completed << "|" << r.throughput_mbps << "|" << r.completion_time.usec()
      << "|" << r.negotiated_mp << "|" << r.achieved_mp << "|" << r.join_attempts
      << "|" << r.fallback_reason << "|" << r.energy_j[PathId::kWifi] << "|"
      << r.energy_j[PathId::kLte]
      << "|" << timeline_str(r.timeline) << "#" << timeline_str(r.subflow_timelines[0])
      << "#" << timeline_str(r.subflow_timelines[1]);
  return out.str();
}

TEST(BatchGolden, BulkTcpFlowIdenticalUnderScalarDispatch) {
  const auto run = [](bool batch) {
    Simulator sim;
    sim.set_batch_dispatch(batch);
    LinkSpec spec;
    spec.rate_mbps = 10.0;
    spec.one_way_delay = msec(10);
    spec.queue_packets = 64;
    DuplexPath path{sim, spec, spec};
    return flow_signature(run_bulk_flow(sim, path, 500'000, Direction::kDownload));
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(BatchGolden, FaultedTcpFlowIdenticalUnderScalarDispatch) {
  // Loss + a transparent-but-enabled middlebox: the batch path enters
  // the pipe through accept_batch and the per-packet RNG draw order
  // must survive the sweep.
  const auto run = [](bool batch) {
    Simulator sim;
    sim.set_batch_dispatch(batch);
    LinkSpec spec;
    spec.rate_mbps = 8.0;
    spec.one_way_delay = msec(15);
    spec.queue_packets = 32;
    spec.loss_rate = 0.02;
    spec.loss_seed = 11;
    DuplexPath path{sim, spec, spec};
    MiddleboxSpec mbox;
    mbox.mangle_dss = 0.5;  // draws per data packet; no effect on plain TCP
    path.uplink().set_middlebox(mbox);
    path.downlink().set_middlebox(mbox);
    return flow_signature(run_bulk_flow(sim, path, 300'000, Direction::kDownload));
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(BatchGolden, MptcpFlowIdenticalUnderScalarDispatch) {
  const auto run = [](bool batch) {
    Simulator sim;
    sim.set_batch_dispatch(batch);
    LinkSpec wifi;
    wifi.rate_mbps = 10.0;
    wifi.one_way_delay = msec(10);
    wifi.queue_packets = 64;
    LinkSpec lte = wifi;
    lte.one_way_delay = msec(30);
    return mptcp_signature(run_mptcp_flow(sim, symmetric_setup(wifi, lte), MptcpSpec{},
                                          500'000, Direction::kDownload));
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(BatchGolden, PingRttIdenticalUnderScalarDispatch) {
  // The echo server bounces each burst back through send_down_batch —
  // the one place a whole span re-enters a pipe in one call.
  const auto run = [](bool batch) {
    Simulator sim;
    sim.set_batch_dispatch(batch);
    LinkSpec spec;
    spec.rate_mbps = 20.0;
    spec.one_way_delay = msec(25);
    DuplexPath path{sim, spec, spec};
    return measure_ping_rtt(sim, path, 10).usec();
  };
  EXPECT_EQ(run(true), run(false));
}

// The full-campaign bar: CSV bytes equal across {batched, scalar} x
// {serial, 4 workers}.  Workers pre-draw inputs serially, so the only
// way parallelism or batching can leak into the records is an engine
// ordering bug.
TEST(BatchGolden, CampaignCsvIdenticalAcrossDispatchModesAndWorkers) {
  const std::vector<ClusterSpec> world{
      make_cluster("A", {40.0, -70.0}, 8, 0.10, 14.0),
      make_cluster("B", {10.0, 100.0}, 8, 0.85, 4.0)};
  const auto run = [&world](bool scalar, int parallelism) {
    CampaignOptions opt;
    opt.incomplete_probability = 0.1;
    opt.parallelism = parallelism;
    if (scalar) {
      ScopedScalarDispatch env;
      return to_csv(run_campaign(world, opt)).str();
    }
    return to_csv(run_campaign(world, opt)).str();
  };
  const std::string golden = run(/*scalar=*/false, /*parallelism=*/0);
  EXPECT_FALSE(golden.empty());
  EXPECT_EQ(run(false, 4), golden) << "4-worker batched differs from serial";
  EXPECT_EQ(run(true, 0), golden) << "scalar dispatch changed campaign output";
  EXPECT_EQ(run(true, 4), golden) << "4-worker scalar differs";
}

}  // namespace
}  // namespace mn
