#include "world/shared_world.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mn::world {

namespace {

/// Per-venue backhaul shared by its WiFi cell and LTE sector: its rate
/// and its token-bucket depth.
constexpr double kBackhaulMbps = 40.0;
constexpr Duration kBackhaulBurst = msec(20);

std::uint32_t venues_for(int n_users) {
  const auto n = static_cast<std::size_t>(std::max(0, n_users));
  constexpr auto kPerVenue = static_cast<std::size_t>(kUsersPerVenue);
  return static_cast<std::uint32_t>(std::max<std::size_t>(1, (n + kPerVenue - 1) / kPerVenue));
}

}  // namespace

ClusterPlan plan_cluster(const ClusterSpec& spec, int n_users, const WorldOptions& opt) {
  ClusterPlan plan;
  plan.name = spec.name;
  plan.venues = venues_for(n_users);
  plan.users.resize(static_cast<std::size_t>(std::max(0, n_users)));
  // The event loop itself is randomness-free (the PF fading hash is a
  // pure function, not a stream).
  Rng rng(mix_seed(opt.seed, spec.name));
  for (UserPlan& u : plan.users) {
    // Both rates, then both delays.
    for (const PathId p : kPaths) u.phy_mbps[p] = static_cast<float>(spec.rate[p].sample(rng));
    for (const PathId p : kPaths) {
      u.rtt_ms[p] = static_cast<float>(2.0 * spec.delay[p].sample(rng).millis());
    }
    const bool incomplete = rng.uniform() < opt.incomplete_probability;
    const bool skip_wifi_side = rng.uniform() < 0.5;  // drawn unconditionally
    if (incomplete) {
      u.skip[PathId::kWifi] = skip_wifi_side;
      u.skip[PathId::kLte] = !skip_wifi_side;
    }
    u.arrival = secs_f(rng.uniform(0.0, opt.arrival_window_s));
  }
  return plan;
}

ClusterWorld::ClusterWorld(Simulator& sim, const ClusterSpec& spec, int n_users,
                           const WorldOptions& opt)
    : ClusterWorld(sim, plan_cluster(spec, n_users, opt), 0, venues_for(n_users), opt) {}

ClusterWorld::Venue::Venue(Simulator& sim, const std::string& base, std::size_t capacity,
                           std::uint64_t fading_seed)
    : backhaul(kBackhaulMbps, kBackhaulBurst),
      wifi(sim, cell_config(base + ".wifi", capacity)),
      lte(sim, cell_config(base + ".lte", capacity),
          LteSector::Options{.fading_seed = fading_seed}) {}

CellConfig ClusterWorld::Venue::cell_config(std::string name, std::size_t capacity) {
  CellConfig cfg;
  cfg.name = std::move(name);
  cfg.backhaul = &backhaul;
  cfg.station_capacity = capacity;
  return cfg;
}

ClusterWorld::ClusterWorld(Simulator& sim, const ClusterPlan& plan, std::uint32_t first_venue,
                           std::uint32_t last_venue, const WorldOptions& opt)
    : sim_(sim), opt_(opt), cluster_venues_(plan.venues), first_venue_(first_venue) {
  assert(first_venue <= last_venue && last_venue <= plan.venues);
  stats_.name = plan.name;
  const std::size_t n = plan.users.size();
  const std::size_t capacity = std::max<std::size_t>(1, (n + plan.venues - 1) / plan.venues);
  venues_.reserve(last_venue - first_venue);
  for (std::uint32_t v = first_venue; v < last_venue; ++v) {
    const std::string base = plan.name + ".v" + std::to_string(v);
    venues_.push_back(
        std::make_unique<Venue>(sim, base, capacity, mix_seed(opt.seed, "fading." + base)));
  }
  // The held venues' users in global order, which is also their row-major
  // storage order (see user()).
  users_.reserve(venues_.size() * capacity);
  for (std::size_t row = 0; row * plan.venues < n; ++row) {
    for (std::uint32_t v = first_venue; v < last_venue; ++v) {
      const std::size_t i = row * plan.venues + v;
      if (i >= n) break;
      const UserPlan& p = plan.users[i];
      UserFlow& u = users_.emplace_back();
      u.phy_mbps = p.phy_mbps;
      u.rtt_ms = p.rtt_ms;
      u.skip = p.skip;
      sim_.schedule_at(TimePoint{} + p.arrival,
                       [this, i = static_cast<std::uint32_t>(i)] { start_user(i); });
    }
  }
}

void ClusterWorld::start_user(std::uint32_t i) {
  ++stats_.users_started;
  ++in_flight_;
  begin_phase(i, 0);
}

void ClusterWorld::begin_phase(std::uint32_t i, std::uint8_t phase) {
  UserFlow& u = user(i);
  u.phase = phase;
  if (phase == kDone) {
    ++stats_.users_completed;
    --in_flight_;
    if (u.down_mbps[PathId::kWifi] >= 0.0f && u.down_mbps[PathId::kLte] >= 0.0f) {
      ++stats_.both_measured;
      if (u.down_mbps[PathId::kLte] > u.down_mbps[PathId::kWifi]) ++stats_.lte_wins;
    }
    return;
  }
  const bool mptcp = phase == kMptcp;
  const bool skipped = mptcp ? std::ranges::any_of(u.skip, std::identity{})
                             : u.skip[static_cast<PathId>(phase)];
  if (skipped) {
    begin_phase(i, static_cast<std::uint8_t>(phase + 1));
    return;
  }
  u.remaining = opt_.transfer_bytes;
  u.grants = 0;
  u.phase_start_us = sim_.now().usec();
  // A single-path probe attaches to its network's cell; the MPTCP probe
  // attaches to every cell at once, and grants from either drain one
  // shared backlog — the aggregation-throughput shape of the paper's
  // Figure 7.
  Venue& ven = venue_of(i);
  for (const PathId p : kPaths) {
    if (mptcp || p == static_cast<PathId>(phase)) {
      u.station[p] = ven.cell(p).attach(this, i, u.phy_mbps[p]);
    }
  }
}

std::int64_t ClusterWorld::on_grant(std::uint32_t tag, std::int64_t offered_bytes) {
  UserFlow& u = user(tag);
  const std::int64_t g = std::min(offered_bytes, u.remaining);
  if (g <= 0) return 0;
  u.remaining -= g;
  ++u.grants;
  if (u.remaining == 0) complete_phase(tag);
  return g;
}

void ClusterWorld::complete_phase(std::uint32_t i) {
  UserFlow& u = user(i);
  Venue& ven = venue_of(i);
  const std::int64_t dur_us = sim_.now().usec() - u.phase_start_us;
  // bits per microsecond == Mbps.
  const double mbps =
      dur_us > 0 ? static_cast<double>(opt_.transfer_bytes) * 8.0 / static_cast<double>(dur_us)
                 : 0.0;
  // Contended-RTT proxy: base RTT plus half the mean inter-grant gap —
  // the time a just-missed packet waits for the next transmit
  // opportunity, which is what contention adds to ping.
  const double gap_ms =
      u.grants > 0 ? static_cast<double>(dur_us) / 1000.0 / static_cast<double>(u.grants)
                   : 0.0;
  if (u.phase < kMptcp) {
    const auto p = static_cast<PathId>(u.phase);
    u.down_mbps[p] = static_cast<float>(mbps);
    stats_.down_mbps[p].add(mbps);
    stats_.rtt_ms[p].add(static_cast<double>(u.rtt_ms[p]) + 0.5 * gap_ms);
  } else {
    stats_.mptcp_down_mbps.add(mbps);
  }
  // Detach what the phase attached; the other handles are invalid, and
  // detaching an invalid handle is a no-op.
  for (const PathId p : kPaths) {
    ven.cell(p).detach(u.station[p]);
    u.station[p] = StationId{};
  }
  begin_phase(i, static_cast<std::uint8_t>(u.phase + 1));
}

std::vector<int> split_users(const std::vector<ClusterSpec>& world,
                             std::uint64_t total_users) {
  std::vector<int> out(world.size(), 0);
  if (world.empty()) return out;
  std::uint64_t weight_sum = 0;
  for (const ClusterSpec& c : world) weight_sum += static_cast<std::uint64_t>(std::max(1, c.runs));
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < world.size(); ++i) {
    const auto w = static_cast<std::uint64_t>(std::max(1, world[i].runs));
    out[i] = static_cast<int>(total_users * w / weight_sum);
    assigned += static_cast<std::uint64_t>(out[i]);
  }
  // Largest-remainder leftovers go to the first clusters: deterministic
  // and at most world.size() - 1 extras.
  for (std::size_t i = 0; assigned < total_users; i = (i + 1) % world.size()) {
    ++out[i];
    ++assigned;
  }
  return out;
}

WorldResult run_world(const std::vector<ClusterSpec>& world, std::uint64_t total_users,
                      const WorldOptions& opt) {
  const std::vector<int> counts = split_users(world, total_users);
  const auto plans = parallel_map(world.size(), opt.parallelism, [&](std::size_t c) {
    return plan_cluster(world[c], counts[c], opt);
  });

  // The work units are every (cluster, venue) pair in cluster order,
  // dealt to contiguous chunks.  A chunk folds its venues into one
  // accumulator per cluster it reaches, so memory stays per chunk, not
  // per venue.
  struct Unit {
    std::uint32_t cluster;
    std::uint32_t venue;
  };
  std::vector<Unit> units;
  for (std::uint32_t c = 0; c < plans.size(); ++c) {
    for (std::uint32_t v = 0; v < plans[c].venues; ++v) units.push_back({c, v});
  }
  const auto workers = static_cast<std::size_t>(std::max(1, resolve_parallelism(opt.parallelism)));
  // Several chunks per worker even out the venues' uneven costs.
  const std::size_t n_chunks = workers == 1 ? 1 : std::min(units.size(), 8 * workers);
  struct ChunkOut {
    std::uint32_t first_cluster = 0;
    std::vector<StreamingClusterStats> stats;  // clusters first_cluster, first_cluster + 1, ...
    std::uint64_t fired = 0;
    std::int64_t end_us = 0;
  };
  auto chunks = parallel_map(n_chunks, opt.parallelism, [&](std::size_t k) {
    ChunkOut out;
    for (std::size_t j = units.size() * k / n_chunks; j < units.size() * (k + 1) / n_chunks; ++j) {
      const Unit u = units[j];
      Simulator sim;  // honours MN_SCALAR_DISPATCH itself
      if (!opt.batch_dispatch) sim.set_batch_dispatch(false);
      ClusterWorld venue(sim, plans[u.cluster], u.venue, u.venue + 1, opt);
      sim.run_until_idle();
      if (out.stats.empty()) out.first_cluster = u.cluster;
      if (out.first_cluster + out.stats.size() == u.cluster) {
        out.stats.push_back(venue.take_stats());
      } else {
        out.stats.back().merge_from(venue.stats());
      }
      out.fired += sim.events_fired();
      out.end_us = std::max(out.end_us, sim.now().usec());
    }
    return out;
  });

  WorldResult r;
  r.stats = StreamingRunStats(world);
  r.total_users = total_users;
  for (const ChunkOut& out : chunks) {
    for (std::size_t j = 0; j < out.stats.size(); ++j) {
      r.stats.cluster(out.first_cluster + j).merge_from(out.stats[j]);
    }
    r.events_fired += out.fired;
    r.sim_horizon_s = std::max(r.sim_horizon_s, static_cast<double>(out.end_us) / 1e6);
  }
  return r;
}

}  // namespace mn::world
