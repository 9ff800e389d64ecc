#include "world/shared_world.hpp"

#include <algorithm>
#include <memory>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mn::world {

namespace {

CellConfig make_cell_cfg(std::string name, const WorldOptions& opt, int grants_per_tick,
                         Backhaul* backhaul, std::size_t capacity) {
  CellConfig cfg;
  cfg.name = std::move(name);
  cfg.service_tick = opt.service_tick;
  cfg.grants_per_tick = grants_per_tick;
  cfg.backhaul = backhaul;
  cfg.station_capacity = capacity;
  return cfg;
}

WifiCell::Options wifi_opts(const WorldOptions& opt) {
  WifiCell::Options o;
  o.dcf_overhead = opt.dcf_overhead;
  return o;
}

LteSector::Options lte_opts(const WorldOptions& opt, std::uint64_t seed) {
  LteSector::Options o;
  o.pf_window = opt.pf_window;
  o.ewma_ticks = opt.pf_ewma_ticks;
  o.fading_depth = opt.fading_depth;
  o.fading_seed = seed;
  return o;
}

}  // namespace

ClusterWorld::ClusterWorld(Simulator& sim, const ClusterSpec& spec, int n_users,
                           const WorldOptions& opt)
    : sim_(sim), opt_(opt) {
  stats_.name = spec.name;
  const auto n = static_cast<std::size_t>(std::max(0, n_users));
  users_.resize(n);
  // Venue build-out: a cluster with n users gets ceil(n / users_per_cell)
  // venues so AP density stays realistic at any scale; users are dealt
  // round-robin (user i -> venue i % n_venues), so every venue carries
  // within one user of every other.
  const auto per_cell = static_cast<std::size_t>(std::max(1, opt.users_per_cell));
  const std::size_t n_venues = std::max<std::size_t>(1, (n + per_cell - 1) / per_cell);
  const std::size_t capacity = std::max<std::size_t>(1, (n + n_venues - 1) / n_venues);
  const bool use_backhaul = opt.backhaul_mbps > 0;
  venues_.reserve(n_venues);
  for (std::size_t v = 0; v < n_venues; ++v) {
    const std::string base = spec.name + ".v" + std::to_string(v);
    venues_.push_back(std::make_unique<Venue>(
        sim, Backhaul(use_backhaul ? opt.backhaul_mbps : 1e9, opt.backhaul_burst),
        use_backhaul,
        make_cell_cfg(base + ".wifi", opt, opt.wifi_grants_per_tick, nullptr, capacity),
        wifi_opts(opt),
        make_cell_cfg(base + ".lte", opt, opt.lte_grants_per_tick, nullptr, capacity),
        lte_opts(opt, mix_seed(opt.seed, "fading." + base))));
  }
  // Plan phase: every random draw happens here, in user order, before
  // the first event fires — the event loop itself is randomness-free
  // (the PF fading hash is a pure function, not a stream).
  Rng rng(mix_seed(opt.seed, spec.name));
  for (std::uint32_t i = 0; i < users_.size(); ++i) {
    UserFlow& u = users_[i];
    u.wifi_phy_mbps = static_cast<float>(spec.wifi_rate.sample(rng));
    u.lte_phy_mbps = static_cast<float>(spec.lte_rate.sample(rng));
    u.wifi_rtt_ms = static_cast<float>(2.0 * spec.wifi_delay.sample(rng).millis());
    u.lte_rtt_ms = static_cast<float>(2.0 * spec.lte_delay.sample(rng).millis());
    const bool incomplete = rng.uniform() < opt_.incomplete_probability;
    const bool skip_wifi_side = rng.uniform() < 0.5;  // drawn unconditionally
    if (incomplete) {
      u.skip_wifi = skip_wifi_side;
      u.skip_lte = !skip_wifi_side;
    }
    const Duration arrival = secs_f(rng.uniform(0.0, opt_.arrival_window_s));
    sim_.schedule_at(TimePoint{} + arrival, [this, i] { start_user(i); });
  }
}

void ClusterWorld::start_user(std::uint32_t i) {
  ++stats_.users_started;
  ++in_flight_;
  begin_phase(i, kWifi);
}

void ClusterWorld::begin_phase(std::uint32_t i, std::uint8_t phase) {
  UserFlow& u = users_[i];
  Venue& ven = *venues_[i % venues_.size()];
  u.phase = phase;
  switch (phase) {
    case kWifi:
      if (u.skip_wifi) {
        begin_phase(i, kLte);
        return;
      }
      u.remaining = opt_.transfer_bytes;
      u.grants = 0;
      u.phase_start_us = sim_.now().usec();
      u.wifi_st = ven.wifi.attach(this, i, u.wifi_phy_mbps);
      return;
    case kLte:
      if (u.skip_lte) {
        begin_phase(i, kMptcp);
        return;
      }
      u.remaining = opt_.transfer_bytes;
      u.grants = 0;
      u.phase_start_us = sim_.now().usec();
      u.lte_st = ven.lte.attach(this, i, u.lte_phy_mbps);
      return;
    case kMptcp:
      if (!opt_.mptcp_probe || u.skip_wifi || u.skip_lte) {
        begin_phase(i, kDone);
        return;
      }
      // Dual attach: grants from either cell drain one shared backlog —
      // the aggregation-throughput shape of the paper's Figure 7.
      u.remaining = opt_.transfer_bytes;
      u.grants = 0;
      u.phase_start_us = sim_.now().usec();
      u.wifi_st = ven.wifi.attach(this, i, u.wifi_phy_mbps);
      u.lte_st = ven.lte.attach(this, i, u.lte_phy_mbps);
      return;
    case kDone:
    default:
      ++stats_.users_completed;
      --in_flight_;
      if (u.wifi_down_mbps >= 0.0f && u.lte_down_mbps >= 0.0f) {
        ++stats_.both_measured;
        if (u.lte_down_mbps > u.wifi_down_mbps) ++stats_.lte_wins;
      }
      return;
  }
}

std::int64_t ClusterWorld::on_grant(std::uint32_t tag, std::int64_t offered_bytes) {
  UserFlow& u = users_[tag];
  const std::int64_t g = std::min(offered_bytes, u.remaining);
  if (g <= 0) return 0;
  u.remaining -= g;
  ++u.grants;
  if (u.remaining == 0) complete_phase(tag);
  return g;
}

void ClusterWorld::complete_phase(std::uint32_t i) {
  UserFlow& u = users_[i];
  Venue& ven = *venues_[i % venues_.size()];
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
  switch (u.phase) {
    case kWifi:
      u.wifi_down_mbps = static_cast<float>(mbps);
      stats_.wifi_down_mbps.add(mbps);
      stats_.wifi_rtt_ms.add(static_cast<double>(u.wifi_rtt_ms) + 0.5 * gap_ms);
      ven.wifi.detach(u.wifi_st);
      u.wifi_st = StationId{};
      begin_phase(i, kLte);
      return;
    case kLte:
      u.lte_down_mbps = static_cast<float>(mbps);
      stats_.lte_down_mbps.add(mbps);
      stats_.lte_rtt_ms.add(static_cast<double>(u.lte_rtt_ms) + 0.5 * gap_ms);
      ven.lte.detach(u.lte_st);
      u.lte_st = StationId{};
      begin_phase(i, kMptcp);
      return;
    case kMptcp:
    default:
      stats_.mptcp_down_mbps.add(mbps);
      ven.wifi.detach(u.wifi_st);
      ven.lte.detach(u.lte_st);
      u.wifi_st = StationId{};
      u.lte_st = StationId{};
      begin_phase(i, kDone);
      return;
  }
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

  struct ShardOut {
    StreamingClusterStats stats;
    std::uint64_t fired = 0;
    std::int64_t end_us = 0;
  };
  auto shards = parallel_map(world.size(), opt.parallelism, [&](std::size_t i) {
    Simulator sim;  // honours MN_SCALAR_DISPATCH itself
    if (!opt.batch_dispatch) sim.set_batch_dispatch(false);
    ClusterWorld cluster(sim, world[i], counts[i], opt);
    sim.run_until_idle();
    return ShardOut{cluster.take_stats(), sim.events_fired(), sim.now().usec()};
  });

  WorldResult r;
  r.stats = StreamingRunStats(world);
  r.total_users = total_users;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    r.stats.cluster(i).merge_from(shards[i].stats);
    r.events_fired += shards[i].fired;
    r.sim_horizon_s = std::max(r.sim_horizon_s, static_cast<double>(shards[i].end_us) / 1e6);
  }
  return r;
}

}  // namespace mn::world
