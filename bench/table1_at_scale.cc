// Table 1 at population scale: the shared-infrastructure world.
//
// The classic table1_geo_clusters bench replays the paper's ~750
// crowdsourced runs over private links — one user per link, no
// contention.  This bench asks the scaling question instead: what do
// the Table-1 columns look like when ONE HUNDRED THOUSAND (stretch: a
// million) concurrent users run the measurement protocol against
// *shared* cells — airtime-fair WiFi APs, proportional-fair LTE
// sectors, venue backhauls — with O(clusters) aggregation memory?
//
// Engine figures this bench prints:
//   users/s         one simulator event per cell service tick (events/s
//                   is printed too, but events per user is a property of
//                   the cell model, so only users/s compares across it)
//   peak RSS        streaming sketches, not per-run vectors — memory is
//                   bounded by clusters x sketch size, not user count
//
// Knobs: MN_WORLD_USERS (exact user count; beats scaling) or
// MN_RUN_SCALE (users = 100000 x scale), MN_THREADS (venue shards).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "common.hpp"
#include "measure/world.hpp"
#include "world/shared_world.hpp"

namespace {

std::uint64_t env_users(double scale) {
  if (const char* v = std::getenv("MN_WORLD_USERS")) {
    const long long n = std::atoll(v);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  const auto n = static_cast<std::uint64_t>(100000.0 * scale);
  return n > 0 ? n : 1;
}

}  // namespace

int main() {
  using namespace mn;
  bench::print_header("Table 1 (at scale)",
                      "LTE-win fractions from a contended, shared-cell world");
  bench::print_paper(
      "Table 1's per-cluster LTE-win fractions come from ~750 independent "
      "runs; here the same protocol runs as 10^5 concurrent users per "
      "default scale, contending for shared cells.");

  const double scale = bench::env_scale();
  const std::uint64_t users = env_users(scale);

  world::WorldOptions opt;
  opt.incomplete_probability = 0.08;  // the paper's incomplete-run share

  const auto clusters = table1_world();
  const auto t0 = std::chrono::steady_clock::now();
  const world::WorldResult result = world::run_world(clusters, users, opt);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::cout << "world: " << users << " users over " << clusters.size()
            << " clusters (scale " << scale << ")\n\n";
  result.stats.table1().print(std::cout);

  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < result.stats.size(); ++i) {
    started += result.stats.cluster(i).users_started;
    completed += result.stats.cluster(i).users_completed;
  }
  const double events_per_s =
      wall_s > 0.0 ? static_cast<double>(result.events_fired) / wall_s : 0.0;
  const double users_per_s = wall_s > 0.0 ? static_cast<double>(users) / wall_s : 0.0;
  const std::int64_t rss = bench::read_peak_rss_bytes();

  std::cout << "\n";
  bench::print_measured(std::to_string(completed) + "/" + std::to_string(started) +
                        " users completed; sim horizon " +
                        std::to_string(result.sim_horizon_s) + " s");
  bench::print_measured(std::to_string(result.events_fired) + " events in " +
                        std::to_string(wall_s) + " s wall (" +
                        std::to_string(events_per_s) + " events/s, " +
                        std::to_string(users_per_s) + " users/s)");
  bench::print_measured("aggregation memory: " +
                        std::to_string(result.stats.memory_bytes()) +
                        " bytes (streaming; independent of user count); peak RSS " +
                        std::to_string(rss >= 0 ? rss / (1024 * 1024) : -1) + " MiB");
  return 0;
}
