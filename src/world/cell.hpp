// Shared, contended last-mile infrastructure: the cells many users
// attach to at once.
//
// The campaign runner gives every simulated user a private WiFi AP and
// a private LTE sector — fine for reproducing Table 1, wrong for the
// question the paper's 750 real users actually posed, where flows in
// one coffee shop contended for the same AP, eNodeB, and backhaul.
// This header models that shared layer:
//
//   WifiCell   — airtime-fair contention.  Per service tick the cell
//                round-robins grants over the active stations; each
//                station's bytes scale with its own PHY rate times a
//                DCF-style efficiency factor eff(n) = 1/(1 + a(n-1)),
//                a = kDcfOverhead, that decays as more stations contend
//                (collision and backoff overhead).
//   LteSector  — proportional-fair downlink.  Per service tick the
//                scheduler snapshots a rotating window of kPfWindow
//                attached UEs (the span-based snapshot idiom the MPTCP
//                scheduler engine uses) and grants the top-k by
//                inst/avg rate (ranked once per UE and tick; avg is an
//                EWMA over kEwmaTicks ticks), with deterministic per-UE
//                fast fading supplying the multi-user diversity PF
//                exists to exploit.
//   Backhaul   — a token-bucket bottleneck shared by both cells of a
//                venue, drawn at grant-commit time in (time, seq)
//                order.
//
// Mechanically each cell owns ONE simulator event per service tick.
// Selection plans a tick's grants ({slot, generation, bytes}) into a
// double buffer held by the cell, sized grants_per_tick at
// construction; only the tick itself rides the event wheel.  When the
// tick fires the cell swaps the buffers, runs selection for the NEXT
// tick on pre-commit state, then commits the held grants in plan order
// (backhaul draw, on_grant, PF fold).  Nothing else can interleave
// with a tick, so batched and scalar dispatch run identical logic in
// identical order by construction.  An idle cell files the same tick
// item with an empty plan when its first station attaches.
//
// Stations are generation-tagged (the simulator's own slot-reuse
// discipline): a grant scheduled for a station that detaches before the
// grant lands hits a stale generation and commits nothing, so detach
// never needs to chase in-flight events.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace mn::world {

/// Consumer side of a grant: the cell offers bytes, the owner returns
/// how many it actually used (less when the flow's remaining backlog is
/// smaller — the surplus is refunded to the backhaul).  Implemented by
/// ClusterWorld (fluid flows) and CellPort (real packet queues).
class GrantSink {
 public:
  virtual ~GrantSink() = default;
  virtual std::int64_t on_grant(std::uint32_t tag, std::int64_t offered_bytes) = 0;
};

/// Handle to an attached station; stale after detach (generation
/// mismatch), so holding one past detach is harmless.
struct StationId {
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t generation = 0;
  [[nodiscard]] bool valid() const { return slot != kInvalidSlot; }
};

/// Shared bottleneck behind a cluster's cells: a continuous-refill
/// token bucket drawn at grant commit time.  Integer byte-microsecond
/// arithmetic keeps the refill exact and deterministic.
class Backhaul {
 public:
  Backhaul(double rate_mbps, Duration burst)
      : rate_bytes_per_s_(static_cast<std::int64_t>(rate_mbps * 1e6 / 8.0)),
        burst_bytes_(std::max<std::int64_t>(1, rate_bytes_per_s_ * burst.usec() / 1'000'000)),
        tokens_(burst_bytes_) {}

  /// Take up to `want` bytes at simulated time `now`; returns granted.
  std::int64_t draw(TimePoint now, std::int64_t want) {
    refill(now);
    const std::int64_t g = want < tokens_ ? want : tokens_;
    tokens_ -= g;
    granted_ += g;
    throttled_ += want - g;
    return g;
  }

  /// Return bytes a grant did not use (flow smaller than the offer).
  /// Declined bytes were never wanted, so they are not throttled.
  void refund(std::int64_t bytes) {
    tokens_ = std::min(burst_bytes_, tokens_ + bytes);
    granted_ -= bytes;
  }

  [[nodiscard]] std::int64_t granted_bytes() const { return granted_; }
  [[nodiscard]] std::int64_t throttled_bytes() const { return throttled_; }
  [[nodiscard]] std::int64_t rate_bytes_per_s() const { return rate_bytes_per_s_; }

 private:
  void refill(TimePoint now) {
    const std::int64_t dt = now.usec() - last_.usec();
    if (dt <= 0) return;
    last_ = now;
    acc_byte_us_ += rate_bytes_per_s_ * dt;
    tokens_ = std::min(burst_bytes_, tokens_ + acc_byte_us_ / 1'000'000);
    acc_byte_us_ %= 1'000'000;
  }

  std::int64_t rate_bytes_per_s_;
  std::int64_t burst_bytes_;
  std::int64_t tokens_;
  std::int64_t acc_byte_us_ = 0;  // sub-byte refill remainder
  TimePoint last_{};
  std::int64_t granted_ = 0;
  std::int64_t throttled_ = 0;
};

/// Knobs shared by both cell types.  The defaults are the world's venue
/// cells (shared_world.hpp): a 5 ms service tick with 8 grants each.
struct CellConfig {
  std::string name = "cell";  // obs metric prefix: "<name>.grants" etc.
  Duration service_tick = msec(5);
  int grants_per_tick = 8;
  Backhaul* backhaul = nullptr;       // optional shared bottleneck
  std::size_t station_capacity = 64;  // pre-reserved; attach beyond it allocates
};

/// One UE as the PF scheduler sees it during selection — the same
/// span-of-snapshots shape mptcp::SchedContext hands its schedulers.
struct UeSnapshot {
  std::uint32_t slot = 0;
  float inst_mbps = 0.0f;  // PHY rate x deterministic fast fading, this tick
  float avg_mbps = 0.0f;   // PF throughput EWMA, decayed to this tick
};

/// Common station table + tick/grant machinery.  Concrete cells differ
/// only in how they pick stations and size grants (select_grants).
class CellBase {
 public:
  CellBase(Simulator& sim, CellConfig cfg);
  CellBase(const CellBase&) = delete;
  CellBase& operator=(const CellBase&) = delete;
  virtual ~CellBase() = default;

  /// Attach a station (active immediately).  `tag` is echoed to
  /// `sink->on_grant`; `phy_mbps` is this station's own link-layer rate.
  StationId attach(GrantSink* sink, std::uint32_t tag, double phy_mbps);
  /// Idempotent under staleness: a mismatched generation is a no-op.
  void detach(StationId id);
  [[nodiscard]] bool is_attached(StationId id) const;

  [[nodiscard]] int active_stations() const { return active_; }
  [[nodiscard]] std::uint64_t grants() const { return grants_; }
  [[nodiscard]] std::int64_t granted_bytes() const { return granted_bytes_; }
  [[nodiscard]] Duration service_tick() const { return cfg_.service_tick; }

 protected:
  struct Station {
    GrantSink* sink = nullptr;
    std::uint32_t tag = 0;
    std::uint32_t generation = 1;
    float phy_mbps = 0.0f;
    bool active = false;
    // Intrusive ring of active stations (round-robin cursor lives here).
    std::uint32_t next = 0;
    std::uint32_t prev = 0;
    // PF state (LteSector only; dead weight for WiFi, kept unified so
    // one station table serves both cells).
    float pf_avg_mbps = 0.0f;
    std::int64_t pf_last_tick = 0;
  };

  /// One planned grant, held by the cell from selection to commit.
  struct Grant {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
    std::int64_t bytes = 0;
  };

  /// Fill `slot`/`bytes` of `plan` (capacity grants_per_tick) with the
  /// next tick's grants; returns how many were planned.  Runs once per
  /// tick, before any of the tick's commits, on pre-commit state.
  virtual int select_grants(std::int64_t tick_index, Grant* plan) = 0;
  /// Commit-side hook (PF EWMA fold); called only for non-stale grants.
  virtual void on_committed(Station& st, std::int64_t accepted_bytes,
                            std::int64_t tick_index) {
    (void)st;
    (void)accepted_bytes;
    (void)tick_index;
  }

  /// Advance the round-robin cursor and return the previous position.
  std::uint32_t take_cursor();

  Simulator& sim_;
  CellConfig cfg_;
  std::vector<Station> stations_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t cursor_ = StationId::kInvalidSlot;
  int active_ = 0;

 private:
  void on_tick();
  void commit(const Grant& g, TimePoint now, std::int64_t tick_index);
  void select_and_arm();
  void arm();
  void link_active(std::uint32_t slot);
  void unlink_active(std::uint32_t slot);

  SinkId sink_id_;
  bool armed_ = false;  // this cell's tick item is in flight
  // Grant double buffer (each sized grants_per_tick): selection fills
  // planned_ for the next tick while serving_ holds the tick now being
  // committed.
  std::vector<Grant> planned_;
  std::vector<Grant> serving_;
  int planned_count_ = 0;

  std::uint64_t grants_ = 0;
  std::int64_t granted_bytes_ = 0;

  // Optional registry-backed gauges (present iff the sim has an ObsHub
  // at construction).
  obs::MetricsRegistry* reg_ = nullptr;
  obs::MetricId m_active_ = 0;
  obs::MetricId m_grants_ = 0;
  obs::MetricId m_granted_bytes_ = 0;
  obs::MetricId m_busy_us_ = 0;
};

/// Airtime-fair shared WiFi AP with DCF-style efficiency decay.
class WifiCell final : public CellBase {
 public:
  /// eff(n) = 1 / (1 + kDcfOverhead * (n - 1)): contention/backoff
  /// overhead grows with the active-station count.
  static constexpr double kDcfOverhead = 0.03;

  WifiCell(Simulator& sim, CellConfig cfg) : CellBase(sim, std::move(cfg)) {}

  [[nodiscard]] static double efficiency(int n) {
    return n <= 1 ? 1.0 : 1.0 / (1.0 + kDcfOverhead * (n - 1));
  }

 protected:
  int select_grants(std::int64_t tick_index, Grant* plan) override;
};

/// Proportional-fair LTE downlink sector.
class LteSector final : public CellBase {
 public:
  /// PF candidate window per tick.  Selection is exact PF whenever the
  /// active-UE count fits the window; beyond it the window rotates
  /// through the ring so every UE is considered within
  /// ceil(active / window) ticks — a standard bounded-work
  /// approximation.
  static constexpr int kPfWindow = 64;
  /// EWMA horizon in ticks (classic PF T).
  static constexpr double kEwmaTicks = 100.0;

  struct Options {
    /// Deterministic fast fading: inst rate uniform in
    /// phy * [1 - depth, 1 + depth], hashed from (cell seed, UE tag,
    /// tick index).
    double fading_depth = 0.4;
    std::uint64_t fading_seed = 0x9e3779b97f4a7c15ull;
  };

  LteSector(Simulator& sim, CellConfig cfg, Options opt)
      : CellBase(sim, std::move(cfg)), opt_(opt) {}
  LteSector(Simulator& sim, CellConfig cfg) : LteSector(sim, std::move(cfg), Options{}) {}

  /// Exposed for tests: the fading factor UE `tag` sees at `tick_index`.
  [[nodiscard]] double fading(std::uint32_t tag, std::int64_t tick_index) const;

 protected:
  int select_grants(std::int64_t tick_index, Grant* plan) override;
  void on_committed(Station& st, std::int64_t accepted_bytes,
                    std::int64_t tick_index) override;

 private:
  Options opt_;
  std::array<UeSnapshot, kPfWindow> snaps_;  // selection scratch
  std::array<double, kPfWindow> metrics_;    // PF metric of each snapshot
};

}  // namespace mn::world
