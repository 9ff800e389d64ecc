// Contended-cell mechanics: airtime fairness, PF scheduling, the shared
// backhaul bottleneck, generation-tagged staleness, and the idle/re-arm
// life cycle.  Each test drives a cell directly through fluid GrantSink
// stubs; the packet-fidelity CellPort gets its own file.
#include "world/cell.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "util/inplace_function.hpp"

namespace mn::world {
namespace {

/// Fluid backlog that detaches itself from the cell when drained (the
/// same discipline ClusterWorld follows — a station that accepts zero
/// forever would keep the cell ticking for eternity).
struct Backlog final : GrantSink {
  CellBase* cell = nullptr;
  StationId id;
  std::int64_t remaining = 0;
  std::int64_t taken = 0;
  std::int64_t last_grant_us = -1;
  int grants = 0;
  Simulator* sim = nullptr;

  std::int64_t on_grant(std::uint32_t, std::int64_t offered) override {
    const std::int64_t g = offered < remaining ? offered : remaining;
    remaining -= g;
    taken += g;
    ++grants;
    if (sim != nullptr) last_grant_us = sim->now().usec();
    if (remaining == 0 && cell != nullptr) cell->detach(id);
    return g;
  }
};

CellConfig cfg(const char* name, Backhaul* bh = nullptr) {
  CellConfig c;
  c.name = name;
  c.service_tick = msec(5);
  c.grants_per_tick = 8;
  c.backhaul = bh;
  c.station_capacity = 16;
  return c;
}

TEST(WifiCell, EfficiencyDecaysWithContention) {
  Simulator sim;
  WifiCell cell(sim, cfg("w"));
  EXPECT_DOUBLE_EQ(cell.efficiency(1), 1.0);
  for (int n = 2; n < 40; ++n) {
    EXPECT_LT(cell.efficiency(n), cell.efficiency(n - 1)) << n;
    EXPECT_GT(cell.efficiency(n), 0.0);
  }
}

TEST(WifiCell, AirtimeSharedFairlyAmongEqualStations) {
  Simulator sim;
  WifiCell cell(sim, cfg("w"));
  std::vector<Backlog> users(4);
  for (std::uint32_t i = 0; i < users.size(); ++i) {
    users[i].cell = &cell;
    users[i].remaining = 1'000'000'000;  // never drains during the test
    users[i].id = cell.attach(&users[i], i, /*phy_mbps=*/10.0);
  }
  sim.run_until(TimePoint{} + sec(2));

  // Equal PHY, airtime-fair round-robin: every station gets the same
  // share to within one tick's quantum.
  std::int64_t lo = users[0].taken;
  std::int64_t hi = users[0].taken;
  std::int64_t total = 0;
  for (const Backlog& u : users) {
    lo = std::min(lo, u.taken);
    hi = std::max(hi, u.taken);
    total += u.taken;
  }
  EXPECT_GT(lo, 0);
  EXPECT_LT(static_cast<double>(hi - lo), 0.05 * static_cast<double>(hi));

  // Cell capacity ~ phy * eff(4) (airtime split, not rate sum): 2 s of
  // 10 Mbit/s at eff(4) = 1/1.09 is ~2.29 MB.
  const double expect_bytes = 10e6 / 8.0 * cell.efficiency(4) * 2.0;
  EXPECT_NEAR(static_cast<double>(total), expect_bytes, 0.05 * expect_bytes);
  for (Backlog& u : users) cell.detach(u.id);
}

TEST(WifiCell, SlowStationGetsEqualAirtimeNotEqualBytes) {
  Simulator sim;
  WifiCell cell(sim, cfg("w"));
  Backlog fast;
  Backlog slow;
  fast.cell = slow.cell = &cell;
  fast.remaining = slow.remaining = 1'000'000'000;
  fast.id = cell.attach(&fast, 0, 40.0);
  slow.id = cell.attach(&slow, 1, 4.0);
  sim.run_until(TimePoint{} + sec(2));
  // Airtime fairness: bytes scale with own PHY — a 10x rate gap yields
  // ~10x the bytes (NOT equal-throughput, which would punish the fast
  // station; the classic WiFi rate-anomaly shape).
  const double ratio = static_cast<double>(fast.taken) / static_cast<double>(slow.taken);
  EXPECT_NEAR(ratio, 10.0, 1.0);
  cell.detach(fast.id);
  cell.detach(slow.id);
}

TEST(LteSector, ProportionalFairServesEveryoneAndExploitsDiversity) {
  Simulator sim;
  LteSector cell(sim, cfg("l"));
  std::vector<Backlog> users(6);
  for (std::uint32_t i = 0; i < users.size(); ++i) {
    users[i].cell = &cell;
    users[i].remaining = 1'000'000'000;
    users[i].id = cell.attach(&users[i], i, 20.0);
  }
  sim.run_until(TimePoint{} + sec(2));
  std::int64_t lo = users[0].taken;
  std::int64_t hi = users[0].taken;
  std::int64_t total = 0;
  for (const Backlog& u : users) {
    lo = std::min(lo, u.taken);
    hi = std::max(hi, u.taken);
    total += u.taken;
  }
  // No starvation, and equal-average UEs end within 15% of each other.
  EXPECT_GT(lo, 0);
  EXPECT_LT(static_cast<double>(hi - lo), 0.15 * static_cast<double>(hi));
  // PF rides fading peaks: long-run sector throughput must land at or
  // above the no-diversity baseline (avg PHY) and below the +40% peak.
  const double mbps = static_cast<double>(total) * 8.0 / 2.0 / 1e6;
  EXPECT_GT(mbps, 18.0);
  EXPECT_LT(mbps, 29.0);
  for (Backlog& u : users) cell.detach(u.id);
}

TEST(LteSector, FadingIsDeterministicAndBounded) {
  Simulator sim;
  LteSector::Options opt;
  opt.fading_depth = 0.4;
  opt.fading_seed = 1234;
  LteSector cell(sim, cfg("l"), opt);
  LteSector again(sim, cfg("l2"), opt);
  for (std::uint32_t tag = 0; tag < 8; ++tag) {
    for (std::int64_t tick = 0; tick < 200; ++tick) {
      const double f = cell.fading(tag, tick);
      EXPECT_GE(f, 0.6);
      EXPECT_LE(f, 1.4);
      EXPECT_EQ(f, again.fading(tag, tick)) << "same seed, same factor";
    }
  }
}

/// Never drains; logs the tag of every grant it receives, in commit
/// (= plan) order.
struct GrantLog final : GrantSink {
  std::vector<std::uint32_t> tags;
  std::int64_t on_grant(std::uint32_t tag, std::int64_t offered) override {
    tags.push_back(tag);
    return offered;
  }
};

TEST(LteSectorTest, TopKKeepsSwapOrderOnTies) {
  // No fading and a fresh EWMA: five 10 Mbit/s stations tie exactly on
  // the PF metric, and the one 20 Mbit/s station sits fifth of six in
  // the ring.  Top-3 selection swaps the winner into position 0, which
  // moves station 0 back to the winner's old place; the ties then go to
  // the first index left, stations 1 and 2.  Stable top-k would plan
  // {4, 0, 1} instead.
  Simulator sim;
  CellConfig c = cfg("l");
  c.grants_per_tick = 3;
  LteSector::Options opt;
  opt.fading_depth = 0.0;
  LteSector cell(sim, c, opt);
  GrantLog log;
  std::vector<StationId> ids;
  for (std::uint32_t i = 0; i < 6; ++i) ids.push_back(cell.attach(&log, i, i == 4 ? 20.0 : 10.0));
  // The wake tick (5 ms) plans; the 10 ms tick commits that plan after
  // planning the next one on the same, still untouched, EWMA state.
  sim.run_until(TimePoint{} + msec(10));
  EXPECT_EQ(log.tags, (std::vector<std::uint32_t>{4, 1, 2}));
  sim.run_until(TimePoint{} + msec(15));
  EXPECT_EQ(log.tags, (std::vector<std::uint32_t>{4, 1, 2, 4, 1, 2}));
  for (const StationId id : ids) cell.detach(id);
}

TEST(Backhaul, SharedBottleneckCapsBothCells) {
  Simulator sim;
  Backhaul bh(/*rate_mbps=*/8.0, /*burst=*/msec(20));
  WifiCell wifi(sim, cfg("w", &bh));
  LteSector lte(sim, cfg("l", &bh));
  Backlog u1;
  Backlog u2;
  u1.cell = &wifi;
  u2.cell = &lte;
  u1.remaining = u2.remaining = 1'000'000'000;
  // WiFi demand (4 Mbit/s) sits below the 8 Mbit/s bucket; the LTE UE
  // could saturate it alone.  Grants draw in (time, seq) order, so WiFi
  // takes its full demand and LTE gets exactly the leftover — the
  // bucket enforces the sum, not a fairness split.
  u1.id = wifi.attach(&u1, 0, 4.0);
  u2.id = lte.attach(&u2, 0, 50.0);
  sim.run_until(TimePoint{} + sec(2));
  const std::int64_t total = u1.taken + u2.taken;
  // 8 Mbit/s for 2 s = 2 MB, plus the 20 ms burst allowance.
  const double cap = 8e6 / 8.0 * 2.0 + 8e6 / 8.0 * 0.020;
  EXPECT_LE(static_cast<double>(total), cap * 1.01);
  EXPECT_GT(static_cast<double>(total), cap * 0.80);  // bottleneck well used
  const double wifi_want = 4e6 / 8.0 * 2.0;
  EXPECT_NEAR(static_cast<double>(u1.taken), wifi_want, 0.15 * wifi_want);
  EXPECT_GT(u2.taken, 0);
  EXPECT_LT(u2.taken, u1.taken * 2);  // LTE is throttled far below its PHY
  EXPECT_GT(bh.throttled_bytes(), 0);  // demand exceeded the bucket
  wifi.detach(u1.id);
  lte.detach(u2.id);
}

TEST(CellBase, DetachedStationReceivesNoGrantsAndStaleIdIsHarmless) {
  Simulator sim;
  WifiCell cell(sim, cfg("w"));
  Backlog u;
  u.sim = &sim;
  u.remaining = 1'000'000'000;
  u.id = cell.attach(&u, 0, 10.0);
  sim.run_until(TimePoint{} + msec(50));
  EXPECT_GT(u.taken, 0);
  const StationId stale = u.id;
  cell.detach(stale);
  EXPECT_FALSE(cell.is_attached(stale));
  const std::int64_t at_detach_us = sim.now().usec();
  const std::int64_t taken_at_detach = u.taken;
  sim.run_until(TimePoint{} + msec(200));
  // In-flight grants hit the stale generation and commit nothing.
  EXPECT_EQ(u.taken, taken_at_detach);
  EXPECT_LE(u.last_grant_us, at_detach_us);
  // Double detach and is_attached on a reused slot are no-ops/false.
  cell.detach(stale);
  Backlog v;
  v.remaining = 1'000'000'000;
  v.id = cell.attach(&v, 1, 10.0);  // may reuse the freed slot...
  EXPECT_TRUE(cell.is_attached(v.id));
  EXPECT_FALSE(cell.is_attached(stale));  // ...yet the old id stays stale
  cell.detach(v.id);
}

TEST(CellBase, IdleCellReArmsOnNextAttach) {
  Simulator sim;
  WifiCell cell(sim, cfg("w"));
  Backlog u;
  u.cell = &cell;
  u.remaining = 40'000;  // small: drains quickly, then the cell idles
  u.id = cell.attach(&u, 0, 10.0);
  sim.run_until_idle();  // terminates ONLY if the cell disarms when empty
  EXPECT_EQ(u.remaining, 0);
  EXPECT_EQ(cell.active_stations(), 0);
  const std::int64_t idle_us = sim.now().usec();

  Backlog v;
  v.cell = &cell;
  v.remaining = 40'000;
  v.id = cell.attach(&v, 1, 10.0);
  sim.run_until_idle();
  EXPECT_EQ(v.remaining, 0);
  EXPECT_GT(sim.now().usec(), idle_us);
}

TEST(CellBase, SteadyStateGrantPathStaysOffTheHeap) {
  Simulator sim;
  WifiCell cell(sim, cfg("w"));
  std::vector<Backlog> users(8);
  for (std::uint32_t i = 0; i < users.size(); ++i) {
    users[i].cell = &cell;
    users[i].remaining = 200'000;
    users[i].id = cell.attach(&users[i], i, 12.0);
  }
  const std::uint64_t before = inplace_function_heap_fallbacks();
  sim.run_until_idle();
  EXPECT_EQ(inplace_function_heap_fallbacks(), before);
  for (const Backlog& u : users) EXPECT_EQ(u.remaining, 0);
}

TEST(Backhaul, RefundOfDeclinedBytesIsNotThrottling) {
  // A full bucket offers 1000 B to a flow that needs only 300 B: the
  // 700 B it declines go back to the bucket and were never throttled.
  Backhaul bh(/*rate_mbps=*/8.0, /*burst=*/msec(20));
  const std::int64_t offered = bh.draw(TimePoint{}, 1000);
  ASSERT_EQ(offered, 1000);
  bh.refund(offered - 300);
  EXPECT_EQ(bh.throttled_bytes(), 0);
  EXPECT_EQ(bh.granted_bytes(), 300);

  // Same through a cell: an ample bucket and a flow smaller than its
  // first grant.
  Simulator sim;
  Backhaul ample(/*rate_mbps=*/100.0, /*burst=*/msec(20));
  WifiCell cell(sim, cfg("w", &ample));
  Backlog u;
  u.cell = &cell;
  u.remaining = 300;
  u.id = cell.attach(&u, 0, 10.0);
  sim.run_until_idle();
  EXPECT_EQ(u.taken, 300);
  EXPECT_EQ(ample.throttled_bytes(), 0);
  EXPECT_EQ(ample.granted_bytes(), 300);
}

TEST(CellBase, OneTickEventPerCellHowEverManyStations) {
  Simulator sim;
  WifiCell wifi(sim, cfg("w"));
  LteSector lte(sim, cfg("l"));
  std::vector<Backlog> users(128);
  for (std::uint32_t i = 0; i < users.size(); ++i) {
    CellBase& cell = i < 64 ? static_cast<CellBase&>(wifi) : lte;
    users[i].cell = &cell;
    users[i].remaining = 1'000'000'000;  // never drains during the test
    users[i].id = cell.attach(&users[i], i, 20.0);
  }
  const TimePoint end = TimePoint{} + msec(5) * 1000;
  std::size_t max_pending = sim.pending_events();
  while (sim.now() < end && sim.step()) max_pending = std::max(max_pending, sim.pending_events());
  EXPECT_EQ(max_pending, 2u);  // each cell's next tick, nothing per grant
  EXPECT_EQ(wifi.active_stations(), 64);
  EXPECT_EQ(lte.active_stations(), 64);
  EXPECT_GT(wifi.grants(), 900u * 8u);
  EXPECT_GT(lte.grants(), 900u * 8u);
  for (Backlog& u : users) u.cell->detach(u.id);
}

/// Detaches and re-attaches to the same cell inside every grant — the
/// LTE -> MPTCP hand-over ClusterWorld makes.
struct Reattacher final : GrantSink {
  CellBase* cell = nullptr;
  StationId id;
  int grants = 0;

  std::int64_t on_grant(std::uint32_t tag, std::int64_t offered) override {
    ++grants;
    cell->detach(id);
    id = cell->attach(this, tag, 10.0);
    return offered;
  }
};

TEST(CellBase, SelfReattachInsideGrantKeepsReceivingGrants) {
  for (const bool batched : {true, false}) {
    for (const bool lte : {false, true}) {
      Simulator sim;
      sim.set_batch_dispatch(batched);
      WifiCell wifi(sim, cfg("w"));
      LteSector sector(sim, cfg("l"));
      CellBase& cell = lte ? static_cast<CellBase&>(sector) : wifi;
      Reattacher r;
      r.cell = &cell;
      r.id = cell.attach(&r, 0, 10.0);
      sim.run_until(TimePoint{} + sec(1));
      // 200 ticks: the grant planned before each re-attach goes stale,
      // the next one lands, so every other tick serves the station.
      EXPECT_GE(r.grants, 95) << "batched=" << batched << " lte=" << lte;
      EXPECT_TRUE(cell.is_attached(r.id));
      EXPECT_EQ(cell.active_stations(), 1);
      cell.detach(r.id);
    }
  }
}

TEST(CellBase, GrantAbove4GiBIsExact) {
  Simulator sim;
  CellConfig c = cfg("w");
  c.service_tick = sec(1);
  WifiCell cell(sim, c);
  Backlog u;
  u.remaining = std::int64_t{1} << 40;
  // 40 Gbit/s for a 1 s tick: one 5 GB grant, past 32 bits.
  u.id = cell.attach(&u, 0, 40'000.0);
  sim.run_until(TimePoint{} + sec(2));
  EXPECT_EQ(u.grants, 1);
  EXPECT_EQ(u.taken, 5'000'000'000);
  EXPECT_EQ(cell.granted_bytes(), 5'000'000'000);
  cell.detach(u.id);
}

}  // namespace
}  // namespace mn::world
