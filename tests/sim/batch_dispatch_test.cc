// Batch sink dispatch ABI: grouping rules, the scalar fallback, and
// the cancel/reschedule/audit semantics from inside a delivered span.
//
// The contract under test (simulator.hpp header comment): a fired
// group is a maximal run of consecutive-in-seq same-tick same-sink
// items; grouping never reorders anything relative to scalar dispatch;
// items in a delivered span are already fired (their ids are dead, the
// audit counters see them as gone); cancelling other same-tick work
// from inside a batch suppresses it exactly as under scalar dispatch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace mn {
namespace {

/// Records every span a sink receives: (fire time, items) per call.
struct SpanLog {
  struct Entry {
    std::int64_t at;
    std::vector<std::uint64_t> items;
  };
  std::vector<Entry> calls;

  SinkId attach(Simulator& sim) {
    return sim.register_sink([this, &sim](SinkSpan s) {
      calls.push_back({sim.now().usec(), {s.begin(), s.end()}});
    });
  }
  [[nodiscard]] std::vector<std::uint64_t> flat() const {
    std::vector<std::uint64_t> all;
    for (const auto& c : calls) all.insert(all.end(), c.items.begin(), c.items.end());
    return all;
  }
};

TEST(BatchDispatch, SameTickSameSinkItemsArriveAsOneSpan) {
  Simulator sim;
  sim.set_batch_dispatch(true);  // spans wider than 1 exist only in batch mode
  SpanLog log;
  const SinkId sink = log.attach(sim);
  for (std::uint64_t i = 0; i < 5; ++i) sim.schedule_item_at(TimePoint{100}, sink, i);
  sim.run_until_idle();
  ASSERT_EQ(log.calls.size(), 1u);
  EXPECT_EQ(log.calls[0].at, 100);
  EXPECT_EQ(log.calls[0].items, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.events_fired(), 5u);
}

TEST(BatchDispatch, GroupsSplitAtSinkBoundaries) {
  Simulator sim;
  sim.set_batch_dispatch(true);  // spans wider than 1 exist only in batch mode
  SpanLog a, b;
  const SinkId sa = a.attach(sim);
  const SinkId sb = b.attach(sim);
  // Schedule order (= seq order) at one tick: A A B A -> groups [A,A] [B] [A].
  sim.schedule_item_at(TimePoint{50}, sa, 1);
  sim.schedule_item_at(TimePoint{50}, sa, 2);
  sim.schedule_item_at(TimePoint{50}, sb, 3);
  sim.schedule_item_at(TimePoint{50}, sa, 4);
  sim.run_until_idle();
  ASSERT_EQ(a.calls.size(), 2u);
  EXPECT_EQ(a.calls[0].items, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(a.calls[1].items, (std::vector<std::uint64_t>{4}));
  ASSERT_EQ(b.calls.size(), 1u);
  EXPECT_EQ(b.calls[0].items, (std::vector<std::uint64_t>{3}));
}

TEST(BatchDispatch, ClosuresSplitGroupsAtTheirSeqPosition) {
  Simulator sim;
  SpanLog log;
  const SinkId sink = log.attach(sim);
  std::vector<std::string> order;
  sim.schedule_item_at(TimePoint{10}, sink, 1);
  sim.schedule_at(TimePoint{10}, [&order] { order.push_back("closure"); });
  sim.schedule_item_at(TimePoint{10}, sink, 2);
  sim.run_until_idle();
  ASSERT_EQ(log.calls.size(), 2u);
  EXPECT_EQ(log.calls[0].items, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(log.calls[1].items, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(order, (std::vector<std::string>{"closure"}));
}

TEST(BatchDispatch, ScalarFallbackDegradesEveryGroupToWidthOne) {
  Simulator sim;
  sim.set_batch_dispatch(false);
  SpanLog log;
  const SinkId sink = log.attach(sim);
  for (std::uint64_t i = 0; i < 4; ++i) sim.schedule_item_at(TimePoint{7}, sink, i);
  sim.run_until_idle();
  ASSERT_EQ(log.calls.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(log.calls[i].items, std::vector<std::uint64_t>{i});
  }
  EXPECT_EQ(log.flat(), (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(BatchDispatch, EnvVarForcesScalarDispatchAtConstruction) {
  // Restore the caller's setting: later tests in this process must run
  // under the mode the suite was started in.
  const char* caller = std::getenv("MN_SCALAR_DISPATCH");
  const std::string saved = caller ? caller : "";
  ::setenv("MN_SCALAR_DISPATCH", "1", 1);
  Simulator scalar;
  ::unsetenv("MN_SCALAR_DISPATCH");
  Simulator batched;
  if (caller) ::setenv("MN_SCALAR_DISPATCH", saved.c_str(), 1);
  EXPECT_FALSE(scalar.batch_dispatch());
  EXPECT_TRUE(batched.batch_dispatch());
}

TEST(BatchDispatch, CancellingOwnSpanItemsIsANoop) {
  Simulator sim;
  sim.set_batch_dispatch(true);  // spans wider than 1 exist only in batch mode
  std::vector<EventId> ids;
  std::size_t deliveries = 0;
  SinkId sink = 0;
  sink = sim.register_sink([&](SinkSpan s) {
    deliveries += s.size();
    // Every id in this span is already fired; cancelling them must not
    // disturb anything (notably not the counters the audit reconciles).
    for (const EventId id : ids) sim.cancel(id);
    EXPECT_TRUE(sim.bookkeeping_consistent());
  });
  for (std::uint64_t i = 0; i < 3; ++i) {
    ids.push_back(sim.schedule_item_at(TimePoint{5}, sink, i));
  }
  sim.run_until_idle();
  EXPECT_EQ(deliveries, 3u);
  EXPECT_EQ(sim.events_fired(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(BatchDispatch, CancellingOtherSinksSameTickWorkSuppressesIt) {
  for (const bool batch : {true, false}) {
    Simulator sim;
    sim.set_batch_dispatch(batch);
    SpanLog victim_log;
    const SinkId victim = victim_log.attach(sim);
    EventId victim_id = 0;
    std::size_t killer_calls = 0;
    const SinkId killer = sim.register_sink([&](SinkSpan) {
      ++killer_calls;
      sim.cancel(victim_id);
    });
    sim.schedule_item_at(TimePoint{9}, killer, 0);
    victim_id = sim.schedule_item_at(TimePoint{9}, victim, 7);
    sim.run_until_idle();
    EXPECT_EQ(killer_calls, 1u) << "batch=" << batch;
    EXPECT_TRUE(victim_log.calls.empty()) << "batch=" << batch;
    EXPECT_EQ(sim.events_fired(), 1u) << "batch=" << batch;
  }
}

TEST(BatchDispatch, RescheduleFromInsideSpanLandsSameTickAfterGroup) {
  Simulator sim;
  sim.set_batch_dispatch(true);  // spans wider than 1 exist only in batch mode
  SpanLog log;
  SinkId sink = 0;
  bool rearmed = false;
  sink = sim.register_sink([&](SinkSpan s) {
    log.calls.push_back({sim.now().usec(), {s.begin(), s.end()}});
    if (!rearmed) {
      rearmed = true;
      // Same-tick reschedule from inside the span: fires later this
      // tick as its own group (its seq is newer than the whole batch).
      sim.schedule_item_at(sim.now(), sink, 99);
    }
  });
  sim.schedule_item_at(TimePoint{3}, sink, 1);
  sim.schedule_item_at(TimePoint{3}, sink, 2);
  sim.run_until_idle();
  ASSERT_EQ(log.calls.size(), 2u);
  EXPECT_EQ(log.calls[0].items, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(log.calls[1].items, (std::vector<std::uint64_t>{99}));
  EXPECT_EQ(log.calls[1].at, 3);
}

TEST(BatchDispatch, MidSpanAuditSeesDeliveredItemsAsFired) {
  Simulator sim;
  sim.set_batch_dispatch(true);  // spans wider than 1 exist only in batch mode
  SinkId sink = 0;
  std::size_t checked = 0;
  sink = sim.register_sink([&](SinkSpan s) {
    // The 4 span items are fired and freed; the closure at the same
    // tick is still pending.  pending_events() must say exactly 1.
    EXPECT_EQ(sim.pending_events(), 1u);
    EXPECT_TRUE(sim.bookkeeping_consistent());
    checked += s.size();
  });
  for (std::uint64_t i = 0; i < 4; ++i) sim.schedule_item_at(TimePoint{8}, sink, i);
  bool closure_fired = false;
  sim.schedule_at(TimePoint{8}, [&closure_fired] { closure_fired = true; });
  sim.run_until_idle();
  EXPECT_EQ(checked, 4u);
  EXPECT_TRUE(closure_fired);
}

TEST(BatchDispatch, StepGranularityIsOneGroup) {
  Simulator sim;
  sim.set_batch_dispatch(true);  // spans wider than 1 exist only in batch mode
  SpanLog log;
  const SinkId sink = log.attach(sim);
  for (std::uint64_t i = 0; i < 3; ++i) sim.schedule_item_at(TimePoint{2}, sink, i);
  sim.schedule_item_at(TimePoint{4}, sink, 9);
  EXPECT_TRUE(sim.step());  // the whole width-3 group is one step
  EXPECT_EQ(log.calls.size(), 1u);
  EXPECT_EQ(sim.events_fired(), 3u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(log.calls.size(), 2u);
  EXPECT_FALSE(sim.step());
}

/// Randomized equivalence: an identical mixed workload (closures, two
/// sinks, cancels, bursty same-tick schedules) must produce the same
/// fire trace under batched and scalar dispatch.
TEST(BatchDispatch, RandomizedWorkloadMatchesScalarTraceExactly) {
  auto run = [](bool batch) {
    Simulator sim;
    sim.set_batch_dispatch(batch);
    std::vector<std::pair<std::int64_t, std::uint64_t>> trace;  // (time, tag)
    const SinkId sa = sim.register_sink([&](SinkSpan s) {
      for (const std::uint64_t v : s) trace.emplace_back(sim.now().usec(), v);
    });
    const SinkId sb = sim.register_sink([&](SinkSpan s) {
      for (const std::uint64_t v : s) trace.emplace_back(sim.now().usec(), v | (1ull << 32));
    });
    std::uint64_t rng = 0x243F6A8885A308D3ull;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    std::vector<EventId> ids;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t r = next();
      const std::int64_t at = sim.now().usec() + static_cast<std::int64_t>((r >> 10) % 300);
      switch (r % 6) {
        case 0:
        case 1:
          ids.push_back(sim.schedule_item_at(TimePoint{at}, sa, r >> 32));
          break;
        case 2:
          ids.push_back(sim.schedule_item_at(TimePoint{at}, sb, r >> 32));
          break;
        case 3:
          ids.push_back(sim.schedule_at(TimePoint{at}, [&trace, &sim, tag = r >> 32] {
            trace.emplace_back(sim.now().usec(), tag | (2ull << 32));
          }));
          break;
        case 4:
          if (!ids.empty()) sim.cancel(ids[(r >> 8) % ids.size()]);
          break;
        default:
          sim.run_until(sim.now() + usec(static_cast<std::int64_t>((r >> 8) % 64)));
      }
    }
    sim.run_until_idle();
    return std::pair{trace, sim.events_fired()};
  };
  const auto batched = run(true);
  const auto scalar = run(false);
  EXPECT_EQ(batched.second, scalar.second);
  ASSERT_EQ(batched.first.size(), scalar.first.size());
  EXPECT_EQ(batched.first, scalar.first);
}

}  // namespace
}  // namespace mn
