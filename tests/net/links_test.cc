#include "net/links.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/trace_gen.hpp"
#include "util/units.hpp"

namespace mn {
namespace {

Packet data_packet(std::int64_t payload) {
  Packet p;
  p.payload = payload;
  return p;
}

TEST(DelayBox, DelaysByExactlyD) {
  Simulator sim;
  DelayBox box{sim, msec(25)};
  TimePoint arrival{};
  box.set_next([&](Packet) { arrival = sim.now(); });
  box.accept(data_packet(100));
  sim.run_until_idle();
  EXPECT_EQ(arrival.usec(), msec(25).usec());
}

TEST(DelayBox, PreservesOrder) {
  Simulator sim;
  DelayBox box{sim, msec(10)};
  std::vector<std::int64_t> seqs;
  box.set_next([&](Packet p) { seqs.push_back(p.seq); });
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(TimePoint{i * 100}, [&box, i] {
      Packet p;
      p.seq = i;
      box.accept(std::move(p));
    });
  }
  sim.run_until_idle();
  EXPECT_EQ(seqs, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(LossBox, ZeroLossPassesEverything) {
  Simulator sim;
  LossBox box{Rng{1}, 0.0};
  int delivered = 0;
  box.set_next([&](Packet) { ++delivered; });
  for (int i = 0; i < 1000; ++i) box.accept(data_packet(10));
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(box.counters().dropped, 0u);
}

TEST(LossBox, DropsAtConfiguredRate) {
  LossBox box{Rng{2}, 0.25};
  int delivered = 0;
  box.set_next([&](Packet) { ++delivered; });
  for (int i = 0; i < 20000; ++i) box.accept(data_packet(10));
  EXPECT_NEAR(delivered / 20000.0, 0.75, 0.02);
}

TEST(RateLink, SerializationDelayMatchesRate) {
  Simulator sim;
  RateLink link{sim, 12.0, 10};  // 12 Mbit/s -> 1500B takes 1 ms
  TimePoint arrival{};
  link.set_next([&](Packet) { arrival = sim.now(); });
  link.accept(data_packet(1460));  // 1460+40 = 1500 wire bytes
  sim.run_until_idle();
  EXPECT_EQ(arrival.usec(), 1000);
}

TEST(RateLink, BackToBackPacketsQueueInTime) {
  Simulator sim;
  RateLink link{sim, 12.0, 10};
  std::vector<std::int64_t> arrivals;
  link.set_next([&](Packet) { arrivals.push_back(sim.now().usec()); });
  link.accept(data_packet(1460));
  link.accept(data_packet(1460));
  link.accept(data_packet(1460));
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 1000);
  EXPECT_EQ(arrivals[1], 2000);
  EXPECT_EQ(arrivals[2], 3000);
}

TEST(RateLink, DropTailWhenFull) {
  Simulator sim;
  RateLink link{sim, 12.0, 2};
  int delivered = 0;
  link.set_next([&](Packet) { ++delivered; });
  for (int i = 0; i < 5; ++i) link.accept(data_packet(1460));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.counters().dropped, 3u);
}

TEST(RateLink, QueueDrainsAndAcceptsAgain) {
  Simulator sim;
  RateLink link{sim, 12.0, 1};
  int delivered = 0;
  link.set_next([&](Packet) { ++delivered; });
  link.accept(data_packet(1460));
  sim.run_until_idle();
  link.accept(data_packet(1460));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 2);
}

TEST(RateLink, RejectsBadConfig) {
  Simulator sim;
  EXPECT_THROW(RateLink(sim, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(RateLink(sim, 10.0, 0), std::invalid_argument);
}

// A rate crash mid-transmission must reprice the in-flight packet's
// remaining bytes AND every queued packet — not just packets accepted
// after the change (the fault-injection rate_crash/rate_restore path).
TEST(RateLink, SetRateMidQueueRepricesQueuedPackets) {
  Simulator sim;
  RateLink link{sim, 12.0, 10};  // 1500B wire = 1 ms per packet
  std::vector<std::int64_t> arrivals;
  link.set_next([&](Packet) { arrivals.push_back(sim.now().usec()); });
  link.accept(data_packet(1460));
  link.accept(data_packet(1460));
  link.accept(data_packet(1460));
  // Halve the rate halfway through the head packet: 750 of its 1500
  // wire bytes are sent, the remaining 750 now take 1 ms at 6 Mbit/s,
  // and each queued packet takes 2 ms instead of 1 ms.
  sim.schedule_at(TimePoint{500}, [&link] { link.set_rate(6.0); });
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 1500);
  EXPECT_EQ(arrivals[1], 3500);
  EXPECT_EQ(arrivals[2], 5500);
}

TEST(RateLink, SetRateSpeedupShortensQueuedDrain) {
  Simulator sim;
  RateLink link{sim, 6.0, 10};  // 1500B wire = 2 ms per packet
  std::vector<std::int64_t> arrivals;
  link.set_next([&](Packet) { arrivals.push_back(sim.now().usec()); });
  link.accept(data_packet(1460));
  link.accept(data_packet(1460));
  link.accept(data_packet(1460));
  // Double the rate halfway through the head packet: its remaining
  // 750 bytes take 500 us, then 1 ms per queued packet.
  sim.schedule_at(TimePoint{1000}, [&link] { link.set_rate(12.0); });
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 1500);
  EXPECT_EQ(arrivals[1], 2500);
  EXPECT_EQ(arrivals[2], 3500);
}

TEST(RateLink, SetRateWhileIdleOnlyAffectsFuturePackets) {
  Simulator sim;
  RateLink link{sim, 12.0, 10};
  std::vector<std::int64_t> arrivals;
  link.set_next([&](Packet) { arrivals.push_back(sim.now().usec()); });
  link.set_rate(6.0);
  link.accept(data_packet(1460));
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 2000);
  EXPECT_THROW(link.set_rate(0.0), std::invalid_argument);
}

TEST(TraceLink, DeliversAtOpportunities) {
  Simulator sim;
  auto trace = std::make_shared<DeliveryTrace>(
      std::vector<Duration>{msec(3), msec(7)}, msec(10));
  TraceLink link{sim, trace, 10};
  std::vector<std::int64_t> arrivals;
  link.set_next([&](Packet) { arrivals.push_back(sim.now().usec()); });
  link.accept(data_packet(1400));
  link.accept(data_packet(1400));
  link.accept(data_packet(1400));
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], msec(3).usec());
  EXPECT_EQ(arrivals[1], msec(7).usec());
  EXPECT_EQ(arrivals[2], msec(13).usec());  // wraps into the next period
}

TEST(TraceLink, SmallPacketsShareOneOpportunity) {
  Simulator sim;
  auto trace = std::make_shared<DeliveryTrace>(std::vector<Duration>{msec(5)}, msec(10));
  TraceLink link{sim, trace, 10};
  std::vector<std::int64_t> arrivals;
  link.set_next([&](Packet) { arrivals.push_back(sim.now().usec()); });
  // Three 400-byte-wire packets (360 payload + 40) fit in one 1500B slot.
  for (int i = 0; i < 3; ++i) link.accept(data_packet(360));
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], msec(5).usec());
  EXPECT_EQ(arrivals[1], msec(5).usec());
  EXPECT_EQ(arrivals[2], msec(5).usec());
}

TEST(TraceLink, FullPacketUsesWholeOpportunity) {
  Simulator sim;
  auto trace = std::make_shared<DeliveryTrace>(std::vector<Duration>{msec(5)}, msec(10));
  TraceLink link{sim, trace, 10};
  std::vector<std::int64_t> arrivals;
  link.set_next([&](Packet) { arrivals.push_back(sim.now().usec()); });
  link.accept(data_packet(1460));  // 1500 wire bytes
  link.accept(data_packet(360));   // must wait for the next period
  sim.run_until_idle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], msec(5).usec());
  EXPECT_EQ(arrivals[1], msec(15).usec());
}

TEST(TraceLink, DropTailWhenFull) {
  Simulator sim;
  auto trace = std::make_shared<DeliveryTrace>(std::vector<Duration>{msec(5)}, msec(10));
  TraceLink link{sim, trace, 2};
  int delivered = 0;
  link.set_next([&](Packet) { ++delivered; });
  for (int i = 0; i < 6; ++i) link.accept(data_packet(1460));
  sim.run_until_idle();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.counters().dropped, 4u);
}

TEST(TraceLink, AchievesTraceRateUnderLoad) {
  Simulator sim;
  auto trace = std::make_shared<DeliveryTrace>(constant_rate_trace(8.0, sec(1)));
  TraceLink link{sim, trace, 1000};
  std::int64_t delivered_bytes = 0;
  link.set_next([&](Packet p) { delivered_bytes += p.wire_bytes(); });
  // Offer 2 MB instantly; the link should drain ~1 MB (8 Mbit/s) per second.
  for (int i = 0; i < 1000; ++i) link.accept(data_packet(1460));
  sim.run_until(TimePoint{sec(1).usec()});
  EXPECT_NEAR(static_cast<double>(delivered_bytes), 1.0e6, 5e4);
}

TEST(ReorderBox, ZeroProbabilityPreservesOrder) {
  Simulator sim;
  ReorderBox box{sim, Rng{1}, 0.0, msec(5)};
  std::vector<std::int64_t> seqs;
  box.set_next([&](Packet p) { seqs.push_back(p.seq); });
  for (int i = 0; i < 50; ++i) {
    Packet p;
    p.seq = i;
    box.accept(std::move(p));
  }
  sim.run_until_idle();
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
  EXPECT_EQ(seqs.size(), 50u);
}

TEST(ReorderBox, ReordersSomePacketsButLosesNone) {
  Simulator sim;
  ReorderBox box{sim, Rng{2}, 0.3, msec(5)};
  std::vector<std::int64_t> seqs;
  box.set_next([&](Packet p) { seqs.push_back(p.seq); });
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(TimePoint{i * 500}, [&box, i] {
      Packet p;
      p.seq = i;
      box.accept(std::move(p));
    });
  }
  sim.run_until_idle();
  EXPECT_EQ(seqs.size(), 200u);
  EXPECT_FALSE(std::is_sorted(seqs.begin(), seqs.end()));
  auto sorted = seqs;
  std::sort(sorted.begin(), sorted.end());
  for (std::int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
}

TEST(TraceLink, RejectsBadConfig) {
  Simulator sim;
  EXPECT_THROW(TraceLink(sim, nullptr, 10), std::invalid_argument);
}

TEST(PacketRing, FifoAcrossWrapAndGrowth) {
  PacketRing ring;
  EXPECT_TRUE(ring.empty());
  std::int64_t pushed = 0, popped = 0;
  // Interleave pushes and pops so head_ walks the buffer (wrap), while
  // the net size climbs past 64 and 128 (two growth re-linearizations).
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 9; ++i) {
      Packet p;
      p.seq = pushed++;
      ring.push_back(std::move(p));
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_FALSE(ring.empty());
      EXPECT_EQ(ring.front().seq, popped);
      EXPECT_EQ(ring.pop_front().seq, popped);
      ++popped;
    }
  }
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(pushed - popped));
  while (!ring.empty()) EXPECT_EQ(ring.pop_front().seq, popped++);
  EXPECT_EQ(popped, pushed);
}

TEST(DelayBox, BatchHandlerReceivesWholeTickSweepAsOneSpan) {
  Simulator sim;
  sim.set_batch_dispatch(true);  // spans wider than 1 exist only in batch mode
  DelayBox box{sim, msec(5)};
  std::vector<std::vector<std::int64_t>> sweeps;
  box.set_next_batch([&](std::span<Packet> ps) {
    std::vector<std::int64_t> seqs;
    for (const Packet& p : ps) seqs.push_back(p.seq);
    sweeps.push_back(std::move(seqs));
  });
  for (std::int64_t i = 0; i < 4; ++i) {
    Packet p;
    p.seq = i;
    box.accept(std::move(p));  // all at t=0 -> all due at t=5ms
  }
  sim.run_until_idle();
  ASSERT_EQ(sweeps.size(), 1u);
  EXPECT_EQ(sweeps[0], (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(box.counters().accepted, 4u);
  EXPECT_EQ(box.counters().delivered, 4u);
}

TEST(DelayBox, BatchHandlerSplitsSweepsPerTick) {
  Simulator sim;
  sim.set_batch_dispatch(true);  // spans wider than 1 exist only in batch mode
  DelayBox box{sim, msec(1)};
  std::vector<std::size_t> widths;
  box.set_next_batch([&](std::span<Packet> ps) { widths.push_back(ps.size()); });
  const auto inject = [&sim, &box](std::int64_t at, int n) {
    sim.schedule_at(TimePoint{at}, [&box, n] {
      for (int i = 0; i < n; ++i) box.accept(Packet{});
    });
  };
  inject(0, 3);
  inject(200, 2);
  sim.run_until_idle();
  EXPECT_EQ(widths, (std::vector<std::size_t>{3, 2}));
}

TEST(DelayBox, BatchAndScalarDeliverIdenticalOrderAndTiming) {
  const auto run = [](bool batched) {
    Simulator sim;
    DelayBox box{sim, msec(2)};
    std::vector<std::pair<std::int64_t, std::int64_t>> trace;  // (time, seq)
    if (batched) {
      box.set_next_batch([&](std::span<Packet> ps) {
        for (const Packet& p : ps) trace.emplace_back(sim.now().usec(), p.seq);
      });
    } else {
      box.set_next([&](Packet p) { trace.emplace_back(sim.now().usec(), p.seq); });
    }
    std::int64_t seq = 0;
    for (std::int64_t at : {0, 0, 0, 150, 150, 900}) {
      sim.schedule_at(TimePoint{at}, [&box, &seq] {
        Packet p;
        p.seq = seq++;
        box.accept(std::move(p));
      });
    }
    sim.run_until_idle();
    return trace;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace mn
