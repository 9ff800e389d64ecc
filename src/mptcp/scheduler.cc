#include "mptcp/scheduler.hpp"

#include <algorithm>

namespace mn {

namespace {

/// The radio whose tail energy the energy policies manage.  The 15 s
/// RRC tail is an LTE property (energy/power_model); WiFi's PSM re-entry
/// is 200 ms and not worth scheduling around.
constexpr PathId kCostlyPath = PathId::kLte;

/// The Linux-default sort key: SRTT, with unmeasured subflows pessimised
/// to 100 ms so a fresh join does not instantly outrank a warm path.
[[nodiscard]] std::int64_t srtt_key(const SubflowSnapshot& sf) {
  return sf.srtt.usec() > 0 ? sf.srtt.usec() : msec(100).usec();
}

std::size_t lowest_rtt_order(std::span<const SubflowSnapshot> subflows,
                             std::span<int> out) {
  const std::size_t n = std::min(subflows.size(), out.size());
  for (std::size_t i = 0; i < n; ++i) out[i] = subflows[i].id;
  // Stable insertion sort.  Subflow counts are tiny (two in every paper
  // scenario) and this runs once per pump on the hottest MPTCP path —
  // std::stable_sort's temporary buffer costs a heap round-trip per call.
  for (std::size_t i = 1; i < n; ++i) {
    const int v = out[i];
    const std::int64_t key = srtt_key(subflows[static_cast<std::size_t>(v)]);
    std::size_t j = i;
    for (; j > 0 && srtt_key(subflows[static_cast<std::size_t>(out[j - 1])]) > key; --j) {
      out[j] = out[j - 1];
    }
    out[j] = v;
  }
  return n;
}

/// True when `sf` is the only subflow the agent would hand fresh data —
/// the failover guard: an energy policy must never starve the last
/// carrying path just because it is the costly one.  Keyed on can_carry,
/// not usable: an established-but-withheld backup cannot substitute for
/// the subflow being denied (deadlock otherwise).
[[nodiscard]] bool sole_carrier(const SubflowSnapshot& sf,
                                std::span<const SubflowSnapshot> subflows) {
  for (const SubflowSnapshot& other : subflows) {
    if (other.id != sf.id && other.can_carry) return false;
  }
  return true;
}

class LowestRttScheduler final : public Scheduler {
 public:
  std::size_t pump_order(std::span<const SubflowSnapshot> subflows,
                         const SchedContext&, std::span<int> out) override {
    return lowest_rtt_order(subflows, out);
  }
  [[nodiscard]] const char* name() const override { return "LowestRTT"; }
};

class RoundRobinScheduler final : public Scheduler {
 public:
  std::size_t pump_order(std::span<const SubflowSnapshot> subflows,
                         const SchedContext& ctx, std::span<int> out) override {
    // Offer data first to the subflow after the previous grantee —
    // robust against pump_order being invoked several times per ACK.
    const std::size_t n = std::min(subflows.size(), out.size());
    if (n == 0) return 0;
    const auto start =
        static_cast<std::size_t>(ctx.last_grant_subflow + 1) % n;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = subflows[(start + i) % n].id;
    }
    return n;
  }
  [[nodiscard]] const char* name() const override { return "RoundRobin"; }
};

class RedundantScheduler final : public Scheduler {
 public:
  std::size_t pump_order(std::span<const SubflowSnapshot> subflows,
                         const SchedContext&, std::span<int> out) override {
    return lowest_rtt_order(subflows, out);
  }
  [[nodiscard]] bool duplicate_grants() const override { return true; }
  [[nodiscard]] const char* name() const override { return "Redundant"; }
};

/// eMPTCP-style delayed subflow establishment: the costly radio is not
/// joined — and gets no fresh data — until the flow has proven itself
/// big (un-acked backlog >= engage threshold).  The latch is one-way:
/// once the radio is worth waking, flapping it would only multiply
/// tails.  Short flows complete WiFi-only and never pay the LTE tail.
class EnergyAwareScheduler final : public Scheduler {
 public:
  explicit EnergyAwareScheduler(std::int64_t engage_bytes)
      : engage_bytes_(engage_bytes) {}

  std::size_t pump_order(std::span<const SubflowSnapshot> subflows,
                         const SchedContext& ctx, std::span<int> out) override {
    update(ctx);
    return lowest_rtt_order(subflows, out);
  }
  bool allow_join(std::span<const SubflowSnapshot> subflows, PathId path,
                  const SchedContext& ctx) override {
    update(ctx);
    if (path != kCostlyPath || engaged_) return true;
    // Failover: with no usable subflow left, the join is the flow's
    // only way forward regardless of energy.
    for (const SubflowSnapshot& sf : subflows) {
      if (sf.usable) return false;
    }
    return true;
  }
  bool allow_fresh_grant(const SubflowSnapshot& sf,
                         std::span<const SubflowSnapshot> subflows,
                         const SchedContext& ctx) override {
    update(ctx);
    if (sf.path != kCostlyPath || engaged_) return true;
    return sole_carrier(sf, subflows);
  }
  [[nodiscard]] const char* name() const override { return "EnergyAware"; }

 private:
  void update(const SchedContext& ctx) {
    // workload_seen, not outstanding: the client of a download has no
    // sender backlog — the flow proves itself big by what has arrived.
    if (!engaged_ && ctx.workload_seen() >= std::max<std::int64_t>(engage_bytes_, 1)) {
      engaged_ = true;
    }
    if (engage_bytes_ <= 0) engaged_ = true;  // gate disabled
  }

  std::int64_t engage_bytes_;
  bool engaged_ = false;
};

/// Tail-aware batching: fresh grants to the costly radio open only when
/// the *unassigned* backlog is worth a tail (>= kOpenBytes) and close
/// again once it drains (<= kCloseBytes).  Against an app that writes
/// incrementally, LTE wakes for coalesced batches instead of per-write
/// dribbles; each wake amortises its 15 s tail over a real batch.
class TailBatchScheduler final : public Scheduler {
 public:
  std::size_t pump_order(std::span<const SubflowSnapshot> subflows,
                         const SchedContext& ctx, std::span<int> out) override {
    update(ctx);
    return lowest_rtt_order(subflows, out);
  }
  bool allow_fresh_grant(const SubflowSnapshot& sf,
                         std::span<const SubflowSnapshot> subflows,
                         const SchedContext& ctx) override {
    update(ctx);
    if (sf.path != kCostlyPath || open_) return true;
    return sole_carrier(sf, subflows);
  }
  [[nodiscard]] const char* name() const override { return "TailBatch"; }

 private:
  /// Hysteresis on the unassigned backlog: the costly radio wakes only
  /// for batches worth its tail, and dribbles ride WiFi.
  static constexpr std::int64_t kOpenBytes = 256'000;
  static constexpr std::int64_t kCloseBytes = 64'000;

  void update(const SchedContext& ctx) {
    if (!open_ && ctx.unassigned() >= kOpenBytes) open_ = true;
    else if (open_ && ctx.unassigned() <= kCloseBytes) open_ = false;
  }

  bool open_ = false;
};

}  // namespace

std::size_t Scheduler::pump_order(std::span<const SubflowSnapshot> subflows,
                                  const SchedContext&, std::span<int> out) {
  const std::size_t n = std::min(subflows.size(), out.size());
  for (std::size_t i = 0; i < n; ++i) out[i] = subflows[i].id;
  return n;
}

bool Scheduler::allow_join(std::span<const SubflowSnapshot>, PathId,
                           const SchedContext&) {
  return true;
}

bool Scheduler::allow_fresh_grant(const SubflowSnapshot&,
                                  std::span<const SubflowSnapshot>,
                                  const SchedContext&) {
  return true;
}

void Scheduler::on_grant(int, std::int64_t, std::int64_t, const SchedContext&) {}

std::unique_ptr<Scheduler> make_scheduler(const MptcpSpec& spec) {
  switch (spec.scheduler) {
    case MpScheduler::kRoundRobin: return std::make_unique<RoundRobinScheduler>();
    case MpScheduler::kRedundant: return std::make_unique<RedundantScheduler>();
    case MpScheduler::kEnergyAware:
      return std::make_unique<EnergyAwareScheduler>(spec.energy_engage_bytes);
    case MpScheduler::kTailBatch:
      return std::make_unique<TailBatchScheduler>();
    case MpScheduler::kLowestRtt: break;
  }
  return std::make_unique<LowestRttScheduler>();
}

}  // namespace mn
