// google-benchmark microbenchmarks for the simulation substrate: event
// queue churn, trace-link drain, interval-set merging, full TCP and
// MPTCP transfers.  These guard the simulator's own performance (the
// campaign benches run thousands of flows).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "energy/power_model.hpp"
#include "net/trace_gen.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "store/remote/client.hpp"
#include "store/remote/server.hpp"
#include "store/run_store.hpp"
#include "tcp/flow.hpp"
#include "util/inplace_function.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace mn {
namespace {

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(TimePoint{(i * 7919) % 10000}, [&fired] { ++fired; });
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueChurn);

// The O(1)-cancel path: schedule `n` events, cancel every other one,
// fire the rest.  The slab engine pays a generation bump per cancel
// where the old engine paid unordered_map/unordered_set traffic.
//
// Per-item cost is NOT flat across the args, and that is cache
// capacity, not an algorithmic regression: every phase (schedule,
// cancel, fire) walks the meta slab in a different order, so the
// working set is n live metas plus the id vector — ~40 B/item.  At
// n=1e3 (40 KB) that sits in L1/L2 and at n=1e4 (400 KB) mostly in
// LLC, but n=1e5 (4 MB) spills, and the random bucket order of the
// (i*7919)%100000 schedule pattern turns each spilled access into a
// memory round trip.  The 1e5 arg pins that cliff in the trajectory
// so a future change to Meta layout (today 32 B, one cache line per
// pair) shows up as a step in items_per_second.
void BM_ScheduleCancel(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<EventId> ids;
  for (auto _ : state) {
    Simulator sim;
    ids.clear();
    ids.reserve(static_cast<std::size_t>(n));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      ids.push_back(sim.schedule_at(TimePoint{(i * 7919) % 100000}, [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    sim.run_until_idle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScheduleCancel)->Arg(1000)->Arg(10000)->Arg(100000);

// The RTO pattern: a timer re-armed before it can fire, `n` times —
// pure schedule+cancel churn through the Timer wrapper.
void BM_TimerRestart(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    int fires = 0;
    Timer timer{sim, [&fires] { ++fires; }};
    for (int i = 0; i < n; ++i) {
      timer.restart(msec(200));
      sim.run_until(sim.now() + usec(50));
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimerRestart)->Arg(1000)->Arg(10000);

// The trace-cursor path: a saturated trace link drains `n` packets
// through thousands of delivery opportunities.  The cursor makes each
// lookup amortized O(1) where the old code binary-searched the whole
// opportunity vector per drain.
void BM_TraceCursorDrain(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  // 96 Mbit/s of MTU opportunities = 8000 per one-second period.
  auto trace = std::make_shared<DeliveryTrace>(constant_rate_trace(96.0, sec(1)));
  for (auto _ : state) {
    Simulator sim;
    TraceLink link{sim, trace, n};
    std::int64_t delivered = 0;
    link.set_next([&delivered](Packet p) { delivered += p.payload; });
    for (int i = 0; i < n; ++i) {
      Packet p;
      p.payload = 1448;
      link.accept(std::move(p));
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TraceCursorDrain)->Arg(500)->Arg(5000);

void BM_TraceLinkDrain(benchmark::State& state) {
  auto trace = std::make_shared<DeliveryTrace>(constant_rate_trace(20.0, sec(1)));
  for (auto _ : state) {
    Simulator sim;
    TraceLink link{sim, trace, 1000};
    std::int64_t delivered = 0;
    link.set_next([&delivered](Packet p) { delivered += p.payload; });
    for (int i = 0; i < 500; ++i) {
      Packet p;
      p.payload = 1448;
      link.accept(std::move(p));
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(delivered);
  }
}
BENCHMARK(BM_TraceLinkDrain);

void BM_IntervalSetMerge(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng{42};
    IntervalSet set;
    for (int i = 0; i < 2000; ++i) {
      const auto a = rng.uniform_int(0, 1'000'000);
      set.add(a, a + rng.uniform_int(1, 3000));
    }
    benchmark::DoNotOptimize(set.total());
  }
}
BENCHMARK(BM_IntervalSetMerge);

// EnergyMeter under a packet-per-millisecond feed (in timestamp order,
// the testbed-tap hot path) plus one timeline render.  Guards the
// sorted-insertion invariant: add_activity must stay O(1) for in-order
// events, and timeline() must not re-sort per call.
void BM_EnergyTimeline(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EnergyMeter meter{lte_power_params()};
    for (int i = 0; i < n; ++i) meter.add_activity(TimePoint{msec(i).usec()});
    const auto horizon = TimePoint{msec(n + 20'000).usec()};
    benchmark::DoNotOptimize(meter.timeline(horizon));
    benchmark::DoNotOptimize(meter.energy_joules(horizon));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EnergyTimeline)->Arg(1000)->Arg(10000);

void BM_TcpBulkFlow1MB(benchmark::State& state) {
  LinkSpec spec;
  spec.rate_mbps = 10.0;
  spec.one_way_delay = msec(10);
  spec.queue_packets = 64;
  for (auto _ : state) {
    Simulator sim;
    DuplexPath path{sim, spec, spec};
    const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kDownload);
    benchmark::DoNotOptimize(r.throughput_mbps);
  }
}
BENCHMARK(BM_TcpBulkFlow1MB);

// The middlebox stage budget: the exact BM_TcpBulkFlow1MB flow with the
// per-pipe middlebox stage dormant (arg 0 — what every flow pays today)
// versus installed-but-transparent (arg 1 — an enabled box whose policy
// draws all came up "don't interfere", the worst clean-path case).  The
// acceptance bar is <= 2% overhead on the clean path.
void BM_MiddleboxStage(benchmark::State& state) {
  const bool installed = state.range(0) != 0;
  LinkSpec spec;
  spec.rate_mbps = 10.0;
  spec.one_way_delay = msec(10);
  spec.queue_packets = 64;
  for (auto _ : state) {
    Simulator sim;
    DuplexPath path{sim, spec, spec};
    if (installed) {
      MiddleboxSpec box;  // every probability 0: enabled yet transparent
      path.uplink().set_middlebox(box);
      path.downlink().set_middlebox(box);
    }
    const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kDownload);
    benchmark::DoNotOptimize(r.throughput_mbps);
  }
}
BENCHMARK(BM_MiddleboxStage)->Arg(0)->Arg(1);

// The observability overhead budget: the exact BM_TcpBulkFlow1MB
// workload with a live ObsHub installed on the simulator, in the
// configuration every campaign run uses (metrics registry, no flight
// ring).  Acceptance gate: <= 2% over the uninstrumented bench, and
// zero InplaceFunction heap fallbacks (instrumentation must not
// fatten any callback past its inline buffer).  Compare:
//   ./microbench --benchmark_filter='BM_TcpBulkFlow1MB|BM_ObsOverhead'
void BM_ObsOverhead(benchmark::State& state) {
  LinkSpec spec;
  spec.rate_mbps = 10.0;
  spec.one_way_delay = msec(10);
  spec.queue_packets = 64;
  const std::uint64_t fallbacks_before = inplace_function_heap_fallbacks();
  obs::ObsHub hub;
  for (auto _ : state) {
    Simulator sim;
    sim.set_obs(&hub);
    DuplexPath path{sim, spec, spec};
    const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kDownload);
    benchmark::DoNotOptimize(r.throughput_mbps);
  }
  if (inplace_function_heap_fallbacks() != fallbacks_before) {
    state.SkipWithError("instrumented hot path fell back to the heap");
  }
  state.counters["events"] =
      static_cast<double>(hub.metrics().value(hub.ids().sim_fired)) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ObsOverhead);

// Same workload with a chaos-sized flight ring attached on top of the
// registry — the post-mortem configuration.  Informational, not part
// of the 2% gate; the delta over BM_ObsOverhead is the cost of the
// 32-byte ring write per instrumented event.
void BM_ObsOverheadFlight(benchmark::State& state) {
  LinkSpec spec;
  spec.rate_mbps = 10.0;
  spec.one_way_delay = msec(10);
  spec.queue_packets = 64;
  obs::ObsHub hub{1 << 14};
  for (auto _ : state) {
    Simulator sim;
    sim.set_obs(&hub);
    DuplexPath path{sim, spec, spec};
    const auto r = run_bulk_flow(sim, path, 1'000'000, Direction::kDownload);
    benchmark::DoNotOptimize(r.throughput_mbps);
  }
}
BENCHMARK(BM_ObsOverheadFlight);

void BM_MptcpBulkFlow1MB(benchmark::State& state) {
  LinkSpec wifi;
  wifi.rate_mbps = 10.0;
  wifi.one_way_delay = msec(10);
  wifi.queue_packets = 64;
  LinkSpec lte = wifi;
  lte.one_way_delay = msec(30);
  const auto setup = symmetric_setup(wifi, lte);
  for (auto _ : state) {
    Simulator sim;
    const auto r = run_mptcp_flow(sim, setup, MptcpSpec{}, 1'000'000,
                                  Direction::kDownload);
    benchmark::DoNotOptimize(r.throughput_mbps);
  }
}
BENCHMARK(BM_MptcpBulkFlow1MB);

// In-memory lookup cost of the result store: the per-run overhead a
// warm campaign pays instead of simulating.  1024 resident entries,
// alternating hits; should stay well under a microsecond.
void BM_StoreLookup(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mn_bench_store_lookup").string();
  std::filesystem::remove_all(dir);
  {
    store::RunStore store{dir};
    for (std::uint64_t i = 0; i < 1024; ++i) {
      store.put({i, i * 0x9e3779b97f4a7c15ull}, std::string(64, 'x'));
    }
    std::uint64_t i = 0;
    for (auto _ : state) {
      const std::uint64_t k = i++ & 2047;  // every other lookup misses
      auto hit = store.lookup({k, k * 0x9e3779b97f4a7c15ull});
      benchmark::DoNotOptimize(hit);
    }
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreLookup);

// The remote tier's lookup: one MNSP1 GET round trip over a Unix-domain
// socket to an in-process StoreServer, same 1024-record store and
// hit/miss mix as BM_StoreLookup.  The delta over the ~28ns local
// lookup IS the wire cost — the number an operator weighs against
// re-executing a run.
void BM_RemoteStoreLookup(benchmark::State& state) {
  const auto base = std::filesystem::temp_directory_path() / "mn_bench_remote_lookup";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  const std::string dir = (base / "store").string();
  const std::string sock = (base / "mn.sock").string();
  {
    store::RunStore seed{dir};
    for (std::uint64_t i = 0; i < 1024; ++i) {
      seed.put({i, i * 0x9e3779b97f4a7c15ull}, std::string(64, 'x'));
    }
  }
  store::remote::StoreServer server{{dir, sock}};
  std::thread server_thread{[&server] { server.run(); }};
  store::remote::RemoteStoreOptions ropt;
  ropt.endpoint = sock;
  {
    store::remote::RemoteStore client{std::move(ropt)};
    std::uint64_t i = 0;
    for (auto _ : state) {
      const std::uint64_t k = i++ & 2047;  // every other lookup misses
      auto hit = client.lookup({k, k * 0x9e3779b97f4a7c15ull});
      benchmark::DoNotOptimize(hit);
    }
  }
  server.stop();
  server_thread.join();
  std::filesystem::remove_all(base);
}
BENCHMARK(BM_RemoteStoreLookup);

void BM_PoissonTraceGen(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng{7};
    const auto t = poisson_trace(10.0, sec(2), rng);
    benchmark::DoNotOptimize(t.opportunities_per_period());
  }
}
BENCHMARK(BM_PoissonTraceGen);

}  // namespace
}  // namespace mn

BENCHMARK_MAIN();
