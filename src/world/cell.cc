#include "world/cell.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "obs/obs.hpp"

namespace mn::world {

namespace {
// splitmix64 finalizer: the deterministic fast-fading hash.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// (1 - 1/T)^i for i in [0, 1024), T = kEwmaTicks, built once by
/// repeated multiplication and read by every sector on any thread.
constexpr auto kDecay = [] {
  std::array<double, 1024> t{};
  const double d = 1.0 - 1.0 / LteSector::kEwmaTicks;
  double acc = 1.0;
  for (double& v : t) {
    v = acc;
    acc *= d;
  }
  return t;
}();

double decay_pow(std::int64_t ticks) {
  if (ticks <= 0) return 1.0;
  const auto i = static_cast<std::size_t>(
      std::min<std::int64_t>(ticks, static_cast<std::int64_t>(kDecay.size()) - 1));
  return kDecay[i];
}
}  // namespace

CellBase::CellBase(Simulator& sim, CellConfig cfg) : sim_(sim), cfg_(std::move(cfg)) {
  // One tick item per span in either dispatch mode: a cell never has
  // two ticks in flight.
  sink_id_ = sim_.register_sink([this](SinkSpan items) {
    for (std::size_t i = 0; i < items.size(); ++i) on_tick();
  });
  stations_.reserve(cfg_.station_capacity);
  free_slots_.reserve(cfg_.station_capacity);
  const auto k = static_cast<std::size_t>(std::max(1, cfg_.grants_per_tick));
  planned_.resize(k);
  serving_.resize(k);
  if (sim_.obs() != nullptr) {
    reg_ = &sim_.obs()->metrics();
    m_active_ = reg_->gauge(cfg_.name + ".active_stations");
    m_grants_ = reg_->counter(cfg_.name + ".grants");
    m_granted_bytes_ = reg_->counter(cfg_.name + ".granted_bytes");
    m_busy_us_ = reg_->counter(cfg_.name + ".busy_usec");
  }
}

StationId CellBase::attach(GrantSink* sink, std::uint32_t tag, double phy_mbps) {
  assert(sink != nullptr);
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(stations_.size());
    stations_.emplace_back();
  }
  Station& st = stations_[slot];
  st.sink = sink;
  st.tag = tag;
  st.phy_mbps = static_cast<float>(phy_mbps);
  st.active = true;
  st.pf_avg_mbps = 0.0f;
  st.pf_last_tick = 0;
  link_active(slot);
  ++active_;
  // An idle cell (no tick in flight) must restart its tick chain.  The
  // wake is a tick with an empty plan one service tick out: selection
  // runs there and grants begin the tick after — the
  // association/scheduling-request latency a real station pays.
  if (!armed_) arm();
  return {slot, st.generation};
}

void CellBase::detach(StationId id) {
  if (!id.valid() || id.slot >= stations_.size()) return;
  Station& st = stations_[id.slot];
  if (!st.active || st.generation != id.generation) return;
  unlink_active(id.slot);
  --active_;
  st.active = false;
  st.sink = nullptr;
  if (++st.generation == 0) st.generation = 1;
  free_slots_.push_back(id.slot);
}

bool CellBase::is_attached(StationId id) const {
  return id.valid() && id.slot < stations_.size() && stations_[id.slot].active &&
         stations_[id.slot].generation == id.generation;
}

std::uint32_t CellBase::take_cursor() {
  const std::uint32_t cur = cursor_;
  cursor_ = stations_[cur].next;
  return cur;
}

void CellBase::link_active(std::uint32_t slot) {
  Station& st = stations_[slot];
  if (cursor_ == StationId::kInvalidSlot) {
    st.next = st.prev = slot;
    cursor_ = slot;
    return;
  }
  // Insert just before the cursor: the newcomer is served after one
  // full round over the existing stations — no queue-jumping.
  const std::uint32_t at = cursor_;
  const std::uint32_t before = stations_[at].prev;
  st.next = at;
  st.prev = before;
  stations_[before].next = slot;
  stations_[at].prev = slot;
}

void CellBase::unlink_active(std::uint32_t slot) {
  Station& st = stations_[slot];
  if (st.next == slot) {
    cursor_ = StationId::kInvalidSlot;
    return;
  }
  stations_[st.prev].next = st.next;
  stations_[st.next].prev = st.prev;
  if (cursor_ == slot) cursor_ = st.next;
}

void CellBase::arm() {
  sim_.schedule_item_at(sim_.now() + cfg_.service_tick, sink_id_, 0);
  armed_ = true;
}

void CellBase::on_tick() {
  armed_ = false;
  std::swap(planned_, serving_);
  const int n = planned_count_;
  planned_count_ = 0;
  // Plan the NEXT tick on pre-commit state, before any of this tick's
  // grants land.
  select_and_arm();
  const TimePoint now = sim_.now();
  const std::int64_t tick_index = now.usec() / cfg_.service_tick.usec();
  for (int j = 0; j < n; ++j) commit(serving_[static_cast<std::size_t>(j)], now, tick_index);
}

void CellBase::commit(const Grant& g, TimePoint now, std::int64_t tick_index) {
  const auto current = [&] {
    const Station& st = stations_[g.slot];
    return st.active && st.generation == g.generation;
  };
  if (!current()) return;  // stale grant: the station detached since selection
  std::int64_t offered = g.bytes;
  if (cfg_.backhaul != nullptr) offered = cfg_.backhaul->draw(now, offered);
  std::int64_t accepted = 0;
  if (offered > 0) accepted = stations_[g.slot].sink->on_grant(stations_[g.slot].tag, offered);
  if (cfg_.backhaul != nullptr && accepted < offered) cfg_.backhaul->refund(offered - accepted);
  ++grants_;
  granted_bytes_ += accepted;
  if (reg_ != nullptr) {
    reg_->add(m_grants_);
    reg_->add(m_granted_bytes_, accepted);
  }
  // on_grant may have detached/reattached this very station (or grown
  // the station table); fold PF state only if the grantee is still the
  // station we served.
  if (current()) on_committed(stations_[g.slot], accepted, tick_index);
}

void CellBase::select_and_arm() {
  if (reg_ != nullptr) reg_->set(m_active_, active_);
  if (active_ == 0) return;  // cell drains; the next attach re-arms it
  const std::int64_t tick_index = sim_.now().usec() / cfg_.service_tick.usec();
  const int k = select_grants(tick_index, planned_.data());
  if (k <= 0) return;
  for (int j = 0; j < k; ++j) {
    Grant& g = planned_[static_cast<std::size_t>(j)];
    g.generation = stations_[g.slot].generation;
  }
  planned_count_ = k;
  arm();
  if (reg_ != nullptr) reg_->add(m_busy_us_, cfg_.service_tick.usec());
}

int WifiCell::select_grants(std::int64_t /*tick_index*/, Grant* plan) {
  const int n = active_;
  const int k = std::min(cfg_.grants_per_tick, n);
  // DCF airtime fairness: the tick is split into k equal transmit
  // opportunities handed to the next k stations in ring order; each
  // station moves bytes at its OWN PHY rate for its share of airtime
  // (the classic WiFi anomaly: slow stations drag everyone's share of
  // time, not of bytes), degraded by the contention-overhead factor.
  const double share_s = cfg_.service_tick.seconds() / k;
  const double eff = efficiency(n);
  for (int j = 0; j < k; ++j) {
    const std::uint32_t slot = take_cursor();
    plan[j].slot = slot;
    plan[j].bytes = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(stations_[slot].phy_mbps) * 1e6 /
                                     8.0 * eff * share_s));
  }
  return k;
}

double LteSector::fading(std::uint32_t tag, std::int64_t tick_index) const {
  const std::uint64_t x =
      mix64(opt_.fading_seed ^ (static_cast<std::uint64_t>(tag) * 0x9e3779b97f4a7c15ull) ^
            (static_cast<std::uint64_t>(tick_index) * 0xd1b54a32d192ed03ull));
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return 1.0 - opt_.fading_depth + 2.0 * opt_.fading_depth * u;
}

int LteSector::select_grants(std::int64_t tick_index, Grant* plan) {
  const int n = active_;
  const int window = std::min(kPfWindow, n);
  const int k = std::min(cfg_.grants_per_tick, window);
  const auto pf_metric = [](const UeSnapshot& s) {
    return static_cast<double>(s.inst_mbps) / std::max(0.05, static_cast<double>(s.avg_mbps));
  };
  // Snapshot the candidate window (rotating: take_cursor advances the
  // ring, so successive ticks consider successive windows and no UE
  // starves behind a fixed prefix) and rank each candidate once.
  for (int j = 0; j < window; ++j) {
    const std::uint32_t slot = take_cursor();
    const Station& st = stations_[slot];
    const auto u = static_cast<std::size_t>(j);
    snaps_[u] = UeSnapshot{
        slot,
        static_cast<float>(static_cast<double>(st.phy_mbps) * fading(st.tag, tick_index)),
        static_cast<float>(static_cast<double>(st.pf_avg_mbps) *
                           decay_pow(tick_index - st.pf_last_tick)),
    };
    metrics_[u] = pf_metric(snaps_[u]);
  }
  const std::span<UeSnapshot> cand(snaps_.data(), static_cast<std::size_t>(window));
  // Top-k by PF metric (partial selection sort; window is small and the
  // first-index-wins tie break keeps the choice deterministic).  Each
  // metric moves with its candidate.
  const double share_s = cfg_.service_tick.seconds() / k;
  for (int j = 0; j < k; ++j) {
    const auto u = static_cast<std::size_t>(j);
    std::size_t best = u;
    double best_m = metrics_[u];
    for (auto i = u + 1; i < cand.size(); ++i) {
      if (metrics_[i] > best_m) {
        best_m = metrics_[i];
        best = i;
      }
    }
    std::swap(cand[u], cand[best]);
    std::swap(metrics_[u], metrics_[best]);
    plan[j].slot = cand[u].slot;
    plan[j].bytes = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(cand[u].inst_mbps) * 1e6 / 8.0 *
                                     share_s));
  }
  return k;
}

void LteSector::on_committed(Station& st, std::int64_t accepted_bytes,
                             std::int64_t tick_index) {
  // Classic PF EWMA with lazy decay: R <- R * d^gap, then fold the rate
  // actually served this tick.  bits/usec == Mbps, so the served rate
  // is accepted * 8 / tick_usec with no unit fudge.
  const double served_mbps = static_cast<double>(accepted_bytes) * 8.0 /
                             static_cast<double>(cfg_.service_tick.usec());
  const double decayed = static_cast<double>(st.pf_avg_mbps) *
                         decay_pow(tick_index - st.pf_last_tick);
  st.pf_avg_mbps = static_cast<float>(decayed + served_mbps / kEwmaTicks);
  st.pf_last_tick = tick_index;
}

}  // namespace mn::world
