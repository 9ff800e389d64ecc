// TCP behaviour under genuine packet reordering: the RACK-style
// reordering window in infer_losses() must keep mild reordering from
// being misread as loss, and transfers must stay correct regardless.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "net/path.hpp"
#include "tcp/tcp_endpoint.hpp"

namespace mn {
namespace {

/// Client/server pair with a ReorderBox spliced into the downlink.
struct ReorderHarness {
  Simulator sim;
  RateLink up_link;
  DelayBox up_delay;
  RateLink down_link;
  ReorderBox down_reorder;
  DelayBox down_delay;
  TcpEndpoint client;
  TcpEndpoint server;

  ReorderHarness(double reorder_prob, Duration extra, std::uint64_t seed)
      : up_link(sim, 50.0, 256),
        up_delay(sim, msec(10)),
        // Deep queue: no droptail loss, so every retransmission in these
        // tests is attributable to (mis)handling of reordering.
        down_link(sim, 20.0, 512),
        down_reorder(sim, Rng{seed}, reorder_prob, extra),
        down_delay(sim, msec(10)),
        client(sim, TcpConfig{}, std::make_unique<RenoCc>()),
        server(sim, TcpConfig{}, std::make_unique<RenoCc>()) {
    up_link.set_next([this](Packet p) { up_delay.accept(std::move(p)); });
    up_delay.set_next([this](Packet p) { server.handle_packet(p); });
    down_link.set_next([this](Packet p) { down_reorder.accept(std::move(p)); });
    down_reorder.set_next([this](Packet p) { down_delay.accept(std::move(p)); });
    down_delay.set_next([this](Packet p) { client.handle_packet(p); });
    client.set_transmit([this](Packet p) { up_link.accept(std::move(p)); });
    server.set_transmit([this](Packet p) { down_link.accept(std::move(p)); });
  }
};

TEST(Reordering, MildReorderingStillDeliversEverything) {
  ReorderHarness h{0.05, msec(3), 11};
  h.server.send_bytes(500'000);
  h.server.close_when_done();
  h.server.listen();
  h.client.connect();
  h.sim.run_until(TimePoint{sec(30).usec()});
  EXPECT_EQ(h.client.bytes_delivered(), 500'000);
}

TEST(Reordering, HeavyReorderingStillDeliversEverything) {
  ReorderHarness h{0.3, msec(8), 23};
  h.server.send_bytes(300'000);
  h.server.close_when_done();
  h.server.listen();
  h.client.connect();
  h.sim.run_until(TimePoint{sec(60).usec()});
  EXPECT_EQ(h.client.bytes_delivered(), 300'000);
}

TEST(Reordering, MildReorderingCausesFewSpuriousRetransmits) {
  ReorderHarness h{0.03, msec(2), 7};
  h.server.send_bytes(500'000);
  h.server.close_when_done();
  h.server.listen();
  h.client.connect();
  h.sim.run_until(TimePoint{sec(30).usec()});
  ASSERT_EQ(h.client.bytes_delivered(), 500'000);
  // ~345 data packets; with a 2 ms jitter against a 20+ ms RTT, the RACK
  // window should suppress nearly all spurious marks.
  EXPECT_LT(h.server.retransmit_count(), 12u);
}

// Parameterized sweep: delivery correctness holds across reordering
// severities and seeds (the throughput cost may vary, correctness not).
// gtest names each case after the raw bytes of its parameter, so the
// struct must have no padding: uninitialised padding bytes would make the
// case names change from one test discovery to the next.
struct ReorderCase {
  double prob;
  std::int64_t extra_ms;
  std::uint64_t seed;
};
static_assert(sizeof(ReorderCase) ==
              sizeof(double) + 2 * sizeof(std::uint64_t));

class ReorderSweep : public ::testing::TestWithParam<ReorderCase> {};

TEST_P(ReorderSweep, AlwaysDeliversExactly) {
  const auto& c = GetParam();
  ReorderHarness h{c.prob, msec(c.extra_ms), c.seed};
  h.server.send_bytes(200'000);
  h.server.close_when_done();
  h.server.listen();
  h.client.connect();
  h.sim.run_until(TimePoint{sec(60).usec()});
  EXPECT_EQ(h.client.bytes_delivered(), 200'000);
  EXPECT_EQ(h.client.state(), TcpState::kDone);
  EXPECT_EQ(h.server.state(), TcpState::kDone);
}

INSTANTIATE_TEST_SUITE_P(Severities, ReorderSweep,
                         ::testing::Values(ReorderCase{0.01, 1, 1},
                                           ReorderCase{0.1, 5, 2},
                                           ReorderCase{0.2, 10, 3},
                                           ReorderCase{0.5, 15, 4},
                                           ReorderCase{0.05, 30, 5}));

}  // namespace
}  // namespace mn
