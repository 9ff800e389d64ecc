// The shared-infrastructure world: many concurrent users contending
// for the cells of cell.hpp.
//
// Each Table-1 cluster is a set of *venues* of up to kUsersPerVenue
// users — each one WifiCell + one LteSector sharing one Backhaul (the
// coffee shop's AP, the overhead sector, and the shop's uplink) —
// plus n fluid user flows that replay the paper's measurement
// protocol: every user runs a WiFi bulk probe, then an LTE bulk probe,
// then (unless it skipped a network) an MPTCP probe attached to BOTH
// cells at once — grants from either cell drain one shared backlog,
// which is exactly the aggregation-throughput question of Figure 7.
// The venue's cells run at CellConfig's default tick and grant count,
// WifiCell's DCF overhead and LteSector's PF window and EWMA horizon;
// its backhaul is kBackhaulMbps with a kBackhaulBurst bucket
// (shared_world.cc).  The paper measured one fixed protocol, so none of
// these is an option.
// Flows are fluid (byte backlogs served by grants, no per-packet
// events), which is what makes 10^5-10^6 concurrent users tractable:
// event count scales with cell service ticks, not with packets.  Full
// per-packet fidelity over the same cells is available separately via
// world::CellPort (port.hpp) for endpoint-level tests.
//
// Determinism contract (DESIGN.md §14):
//   - Every per-user random draw comes from an Rng forked off
//     (seed, cluster name) in plan_cluster, BEFORE any simulation
//     starts; nothing inside the event loop draws randomness except the
//     LTE sector's hashed fading, which is a pure function of
//     (venue seed, tag, tick).
//   - One venue == one unit of simulation.  Venues share nothing but
//     the plan they were dealt from, so a ClusterWorld may hold any
//     range of a cluster's venues on one Simulator: run_world runs each
//     venue on its own Simulator, sharded across workers with
//     parallel_map, and merges StreamingClusterStats in cluster order;
//     a whole cluster on one Simulator gives the same bytes and the
//     same event count.  Results are byte-identical at any MN_THREADS.
//   - Within a venue, cells keep batched and scalar dispatch
//     bit-identical (see cell.hpp); the golden test pins both axes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure/streaming.hpp"
#include "measure/world.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "world/cell.hpp"

namespace mn::world {

/// Users per venue (one WifiCell + LteSector + Backhaul).  A cluster
/// with n users gets ceil(n / kUsersPerVenue) venues and users are
/// dealt round-robin, so cell contention stays at realistic AP density
/// no matter how many users the cluster holds.
inline constexpr int kUsersPerVenue = 64;

struct WorldOptions {
  /// Bytes per probe transfer (the paper's fixed 1 MB bulk download).
  std::int64_t transfer_bytes = 1'000'000;
  /// Probability a user skips one technology (the paper's incomplete
  /// runs); skipped users never enter the LTE-win denominator.
  double incomplete_probability = 0.0;
  /// User arrival times are uniform over [0, arrival_window_s).  The
  /// default keeps a 64-user venue below saturation (crowdsourced users
  /// trickle in; they do not start in the same second) — shrink it to
  /// study thundering-herd overload, where the WiFi-first protocol
  /// piles every arrival onto the APs and LTE wins almost everywhere.
  double arrival_window_s = 60.0;
  std::uint64_t seed = 20130901;
  /// false -> width-1 scalar dispatch (golden tests; results identical).
  bool batch_dispatch = true;
  /// Worker threads for run_world: 0/1 = serial, negative = follow
  /// MN_THREADS (serial when it is unset).
  int parallelism = -1;
};

/// One user's plan-phase draws.
struct UserPlan {
  PerPath<float> phy_mbps;
  PerPath<float> rtt_ms;  // uncontended base RTTs
  Duration arrival{};
  PerPath<bool> skip;  // the paper's incomplete runs skip one network
};

/// A cluster's users, indexed by global user index (the station tag),
/// and its venue count.  User i is dealt to venue i % venues, so every
/// venue carries within one user of every other.
struct ClusterPlan {
  std::string name;
  std::vector<UserPlan> users;
  std::uint32_t venues = 1;
};

/// Every random draw of one cluster, in user order: both rates, both
/// delays, incomplete, skip side, arrival.  The cluster gets
/// ceil(n_users / kUsersPerVenue) venues.
[[nodiscard]] ClusterPlan plan_cluster(const ClusterSpec& spec, int n_users,
                                       const WorldOptions& opt);

/// A range of one cluster's venues and their users on one Simulator.
/// The caller owns the Simulator and drives it (run_until_idle); the
/// world schedules user arrivals in its constructor.
class ClusterWorld final : public GrantSink {
 public:
  /// The whole cluster: every venue of plan_cluster(spec, n_users, opt).
  ClusterWorld(Simulator& sim, const ClusterSpec& spec, int n_users,
               const WorldOptions& opt);
  /// Venues [first_venue, last_venue) of `plan` and only their users;
  /// each user keeps its global index as its station tag.
  ClusterWorld(Simulator& sim, const ClusterPlan& plan, std::uint32_t first_venue,
               std::uint32_t last_venue, const WorldOptions& opt);

  std::int64_t on_grant(std::uint32_t tag, std::int64_t offered_bytes) override;

  [[nodiscard]] const StreamingClusterStats& stats() const { return stats_; }
  [[nodiscard]] StreamingClusterStats take_stats() { return std::move(stats_); }
  [[nodiscard]] int users_in_flight() const { return in_flight_; }
  /// Venues this world holds; wifi(v) etc. index them from 0.
  [[nodiscard]] std::size_t venue_count() const { return venues_.size(); }
  [[nodiscard]] WifiCell& wifi(std::size_t v = 0) { return venues_[v]->wifi; }
  [[nodiscard]] LteSector& lte(std::size_t v = 0) { return venues_[v]->lte; }
  [[nodiscard]] Backhaul& backhaul(std::size_t v = 0) { return venues_[v]->backhaul; }

 private:
  struct Venue {
    Backhaul backhaul;  // initialized first: the cells point at it
    WifiCell wifi;
    LteSector lte;
    /// Cells "<base>.wifi" and "<base>.lte", each pre-sized for
    /// `capacity` stations, behind the venue's backhaul.
    Venue(Simulator& sim, const std::string& base, std::size_t capacity,
          std::uint64_t fading_seed);
    /// The cell serving network `p`.
    [[nodiscard]] CellBase& cell(PathId p) {
      return p == PathId::kWifi ? static_cast<CellBase&>(wifi) : lte;
    }

   private:
    CellConfig cell_config(std::string name, std::size_t capacity);
  };
  /// A user's probes run in phase order: phase p < kMptcp is the
  /// single-path probe on network PathId(p), then the dual-attached
  /// MPTCP probe, then done.
  enum Phase : std::uint8_t { kMptcp = kPaths.size(), kDone };

  struct UserFlow {
    PerPath<float> phy_mbps;
    PerPath<float> rtt_ms;  // uncontended base RTTs
    std::int64_t remaining = 0;
    std::int64_t phase_start_us = 0;
    std::uint32_t grants = 0;
    std::uint8_t phase = 0;
    PerPath<bool> skip;
    PerPath<StationId> station;
    PerPath<float> down_mbps{-1.0f, -1.0f};  // measured; <0 = not measured
  };
  // The grant path walks this record on every grant: keep it one cache line.
  static_assert(sizeof(UserFlow) == 64);

  // Users are named by global index i and stored row by row over the
  // held venues: row i / cluster_venues_, column i % cluster_venues_.
  [[nodiscard]] UserFlow& user(std::uint32_t i) {
    return users_[(i / cluster_venues_) * venues_.size() + (i % cluster_venues_ - first_venue_)];
  }
  [[nodiscard]] Venue& venue_of(std::uint32_t i) {
    return *venues_[i % cluster_venues_ - first_venue_];
  }
  void start_user(std::uint32_t i);
  void begin_phase(std::uint32_t i, std::uint8_t phase);
  void complete_phase(std::uint32_t i);

  Simulator& sim_;
  WorldOptions opt_;
  std::uint32_t cluster_venues_;  // the plan's venue count
  std::uint32_t first_venue_;
  std::vector<std::unique_ptr<Venue>> venues_;
  std::vector<UserFlow> users_;
  StreamingClusterStats stats_;
  int in_flight_ = 0;
};

/// Aggregate outcome of a multi-cluster world run.
struct WorldResult {
  StreamingRunStats stats;
  std::uint64_t events_fired = 0;
  std::uint64_t total_users = 0;
  double sim_horizon_s = 0.0;  // max end-of-sim time across venues
};

/// Distribute `total_users` over `world`'s clusters (weighted by each
/// cluster's Table-1 run count), plan every cluster, simulate every
/// venue on its own Simulator — in parallel across opt.parallelism
/// workers — and merge the per-cluster streaming stats in cluster order.
[[nodiscard]] WorldResult run_world(const std::vector<ClusterSpec>& world,
                                    std::uint64_t total_users, const WorldOptions& opt);

/// The deterministic per-cluster user split run_world uses (exposed for
/// tests and for benches that want to report it).
[[nodiscard]] std::vector<int> split_users(const std::vector<ClusterSpec>& world,
                                           std::uint64_t total_users);

}  // namespace mn::world
