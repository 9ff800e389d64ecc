// Shared-world determinism goldens: the cluster digest must be
// byte-identical across worker counts (MN_THREADS axis) and across
// batched vs scalar sink dispatch — the two axes that reorder event
// *processing* without being allowed to change event *semantics*.
#include "world/shared_world.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <sstream>

#include "measure/world.hpp"
#include "store/key.hpp"
#include "util/inplace_function.hpp"

namespace mn::world {
namespace {

/// RAII MN_SCALAR_DISPATCH=1 (read by every Simulator constructor).
struct ScopedScalarDispatch {
  ScopedScalarDispatch() { ::setenv("MN_SCALAR_DISPATCH", "1", 1); }
  ~ScopedScalarDispatch() { ::unsetenv("MN_SCALAR_DISPATCH"); }
};

WorldOptions small_opts() {
  WorldOptions opt;
  opt.arrival_window_s = 10.0;
  opt.incomplete_probability = 0.1;
  return opt;
}

constexpr std::uint64_t kUsers = 300;

TEST(SplitUsers, DeterministicWeightedAndExhaustive) {
  const auto world = table1_world();
  const auto counts = split_users(world, 10'000);
  ASSERT_EQ(counts.size(), world.size());
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 10'000);
  // Weighted by cluster run counts: Boston (884 paper runs) must get
  // the largest share.
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_GE(counts[0], counts[i]);
  EXPECT_EQ(counts, split_users(world, 10'000)) << "pure function of inputs";
  // Everyone lands somewhere even when users < clusters.
  const auto tiny = split_users(world, 5);
  EXPECT_EQ(std::accumulate(tiny.begin(), tiny.end(), 0), 5);
}

TEST(SharedWorld, EveryUserCompletesAndStatsAddUp) {
  const auto world = table1_world();
  const auto r = run_world(world, kUsers, small_opts());
  EXPECT_EQ(r.total_users, kUsers);
  EXPECT_GT(r.events_fired, 0u);
  EXPECT_GT(r.sim_horizon_s, 0.0);
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t both = 0;
  for (std::size_t i = 0; i < r.stats.size(); ++i) {
    const StreamingClusterStats& c = r.stats.cluster(i);
    started += c.users_started;
    completed += c.users_completed;
    both += c.both_measured;
    EXPECT_LE(c.lte_wins, c.both_measured);
  }
  EXPECT_EQ(started, kUsers);
  EXPECT_EQ(completed, kUsers);
  // ~10% incomplete runs skip one side and leave the win denominator.
  EXPECT_LT(both, kUsers);
  EXPECT_GT(both, kUsers / 2);
}

TEST(SharedWorld, DigestIdenticalAcrossWorkerCounts) {
  const auto world = table1_world();
  WorldOptions serial = small_opts();
  serial.parallelism = 0;
  WorldOptions wide = small_opts();
  wide.parallelism = 4;
  const std::string a = run_world(world, kUsers, serial).stats.digest();
  const std::string b = run_world(world, kUsers, wide).stats.digest();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SharedWorld, DigestIdenticalUnderScalarDispatch) {
  const auto world = table1_world();
  std::string batched;
  {
    const auto r = run_world(world, kUsers, small_opts());
    batched = r.stats.digest();
  }
  std::string scalar_env;
  {
    ScopedScalarDispatch env;  // every Simulator in run_world sees it
    scalar_env = run_world(world, kUsers, small_opts()).stats.digest();
  }
  std::string scalar_opt;
  {
    WorldOptions opt = small_opts();
    opt.batch_dispatch = false;
    scalar_opt = run_world(world, kUsers, opt).stats.digest();
  }
  ASSERT_FALSE(batched.empty());
  EXPECT_EQ(batched, scalar_env);
  EXPECT_EQ(batched, scalar_opt);
}

TEST(SharedWorld, SteadyStateStaysOffTheHeapFallbackPath) {
  const auto world = table1_world();
  // Warm-up run absorbs one-time lazy init (negative sketch arrays etc.).
  (void)run_world(world, 50, small_opts());
  const std::uint64_t before = inplace_function_heap_fallbacks();
  (void)run_world(world, kUsers, small_opts());
  EXPECT_EQ(inplace_function_heap_fallbacks(), before);
}

TEST(SharedWorld, VenueCountScalesWithUsers) {
  Simulator sim;
  const auto world = table1_world();
  WorldOptions opt = small_opts();
  ClusterWorld small(sim, world[0], 10, opt);
  EXPECT_EQ(small.venue_count(), 1u);
  Simulator sim2;
  ClusterWorld big(sim2, world[0], 1000, opt);
  EXPECT_EQ(big.venue_count(), 16u);  // ceil(1000 / 64)
}

TEST(SharedWorld, ObsRegistersPerCellSeriesWhenAsked) {
  // A caller that wants per-cell series attaches its own hub to the
  // cluster's simulator; each venue's WiFi cell and LTE sector publish
  // four series under "<cluster>.v<venue>.<wifi|lte>".
  const auto world = table1_world();
  const ClusterSpec& spec = world[0];
  obs::ObsHub hub;  // outlives the simulator that points at it
  Simulator sim;
  sim.set_obs(&hub);
  ClusterWorld cluster(sim, spec, 100, small_opts());
  sim.run_until_idle();
  EXPECT_EQ(cluster.stats().users_completed, 100u);
  ASSERT_EQ(cluster.venue_count(), 2u);  // ceil(100 / 64)

  const obs::MetricsSnapshot snap = hub.snapshot();
  for (std::size_t v = 0; v < cluster.venue_count(); ++v) {
    for (const char* cell : {".wifi", ".lte"}) {
      const std::string base = spec.name + ".v" + std::to_string(v) + cell;
      for (const char* series : {".active_stations", ".grants", ".granted_bytes", ".busy_usec"}) {
        EXPECT_NE(snap.find(base + series), nullptr) << base + series;
      }
      EXPECT_GT(snap.value_of(base + ".grants"), 0) << base;
    }
  }
}

/// run_world's result rebuilt the other way: one whole-cluster
/// ClusterWorld per cluster on one Simulator, merged in cluster order.
WorldResult whole_cluster_world(const std::vector<ClusterSpec>& world, std::uint64_t users,
                                const WorldOptions& opt) {
  const std::vector<int> counts = split_users(world, users);
  WorldResult r;
  r.stats = StreamingRunStats(world);
  r.total_users = users;
  for (std::size_t c = 0; c < world.size(); ++c) {
    Simulator sim;
    if (!opt.batch_dispatch) sim.set_batch_dispatch(false);
    ClusterWorld cluster(sim, world[c], counts[c], opt);
    sim.run_until_idle();
    r.stats.cluster(c).merge_from(cluster.stats());
    r.events_fired += sim.events_fired();
    r.sim_horizon_s = std::max(r.sim_horizon_s, static_cast<double>(sim.now().usec()) / 1e6);
  }
  return r;
}

// Venues share nothing but their plan, so running each on its own
// Simulator must reproduce a whole cluster on one: same bytes, same
// events, same horizon.  The one-cluster world puts 63/64/65 users
// around the venue boundary; the Table-1 world spreads them thin.
TEST(SharedWorld, VenueUnitsMatchOneSimulatorPerCluster) {
  const std::vector<ClusterSpec> table1 = table1_world();
  const std::vector<std::vector<ClusterSpec>> worlds{{table1[0]}, table1};
  for (const std::vector<ClusterSpec>& world : worlds) {
    for (const std::uint64_t users : {1u, 63u, 64u, 65u, 1000u, 3000u}) {
      for (const bool batched : {true, false}) {
        WorldOptions opt = small_opts();
        // An eighth of the bytes over an eighth of the window: the same
        // contention in an eighth of the events.
        opt.transfer_bytes = 125'000;
        opt.arrival_window_s = 1.25;
        opt.batch_dispatch = batched;
        const WorldResult want = whole_cluster_world(world, users, opt);
        for (const int parallelism : {0, 4}) {
          opt.parallelism = parallelism;
          const WorldResult got = run_world(world, users, opt);
          const std::string where = std::to_string(world.size()) + " clusters, " +
                                    std::to_string(users) + " users, batched=" +
                                    std::to_string(batched) + ", parallelism " +
                                    std::to_string(parallelism);
          EXPECT_EQ(got.stats.digest(), want.stats.digest()) << where;
          EXPECT_EQ(got.events_fired, want.events_fired) << where;
          EXPECT_EQ(got.sim_horizon_s, want.sim_horizon_s) << where;
        }
      }
    }
  }
}

// The digest tests above compare two runs of the same code; this pins
// the bytes themselves, so a sketch or column moved between paths shows.
TEST(SharedWorld, DigestAndTable1BytesArePinned) {
  const auto r = run_world(table1_world(), kUsers, small_opts());
  std::ostringstream table;
  r.stats.table1().print(table);
  const store::ScenarioKey pin =
      store::KeyBuilder("world-digest-pin", 1).str(r.stats.digest()).str(table.str()).finish();
  EXPECT_EQ(pin.hex(), "07fc717672322f1088dead521faf948b");
}

}  // namespace
}  // namespace mn::world
