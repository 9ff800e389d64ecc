#include "measure/locations20.hpp"

#include <algorithm>

#include "net/trace_gen.hpp"

namespace mn {

const std::vector<Location20>& table2_locations() {
  static const std::vector<Location20> locations = [] {
    std::vector<Location20> v;
    auto add = [&v](std::string city, std::string desc, double wifi, double lte,
                    int wifi_ms, int lte_ms, bool cc) {
      Location20 l;
      l.id = static_cast<int>(v.size()) + 1;
      l.city = std::move(city);
      l.description = std::move(desc);
      l.wifi_mbps = wifi;
      l.lte_mbps = lte;
      l.wifi_one_way = msec(wifi_ms);
      l.lte_one_way = msec(lte_ms);
      l.cc_study_member = cc;
      v.push_back(std::move(l));
    };
    //   city               description                wifi  lte  owd_w owd_l cc
    add("Amherst, MA",      "University Campus, Indoor", 18.0, 4.0, 8, 35, true);
    add("Amherst, MA",      "University Campus, Outdoor",12.0, 5.0, 10, 32, true);
    add("Amherst, MA",      "Cafe, Indoor",               6.0, 7.0, 14, 30, true);
    add("Amherst, MA",      "Downtown, Outdoor",          3.0, 9.0, 18, 28, true);
    add("Amherst, MA",      "Apartment, Indoor",         15.0, 6.0, 9, 34, true);
    add("Boston, MA",       "Cafe, Indoor",               4.0, 10.0, 16, 26, true);
    add("Boston, MA",       "Shopping Mall, Indoor",      2.5, 8.0, 22, 30, true);
    add("Boston, MA",       "Subway, Outdoor",            1.5, 5.0, 25, 38, false);
    add("Boston, MA",       "Airport, Indoor",            5.0, 12.0, 15, 25, false);
    add("Boston, MA",       "Apartment, Indoor",         20.0, 8.0, 7, 33, false);
    add("Boston, MA",       "Cafe, Indoor",               8.0, 7.0, 12, 31, false);
    add("Boston, MA",       "Downtown, Outdoor",          3.5, 14.0, 17, 24, false);
    add("Boston, MA",       "Store, Indoor",              7.0, 6.0, 13, 33, false);
    add("Santa Barbara, CA","Hotel Lobby, Indoor",        9.0, 11.0, 11, 27, false);
    add("Santa Barbara, CA","Hotel Room, Indoor",        11.0, 9.0, 10, 29, false);
    add("Santa Barbara, CA","Conference Room, Indoor",    2.0, 10.0, 24, 27, false);
    add("Los Angeles, CA",  "Airport, Indoor",            4.0, 15.0, 40, 23, false);
    add("Washington, D.C.", "Hotel Room, Indoor",        13.0, 7.0, 9, 32, false);
    add("Princeton, NJ",    "Hotel Room, Indoor",        16.0, 5.0, 8, 36, false);
    add("Philadelphia, PA", "Hotel Room, Indoor",        10.0, 10.0, 11, 29, false);
    return v;
  }();
  return locations;
}

MpNetworkSetup location_setup(const Location20& loc, std::uint64_t seed) {
  Rng rng{seed * 1000003ULL + static_cast<std::uint64_t>(loc.id)};
  auto wifi_link = [&](const char* label) {
    LinkSpec s;
    Rng r = rng.fork(label);
    // Contention episodes: the channel alternates between clear and
    // busy (other stations), which is what makes repeated runs at the
    // same cafe differ — the paper's run-to-run noise.
    TwoStateSpec ts;
    ts.good_mbps = loc.wifi_mbps * 1.3;
    ts.bad_mbps = std::max(0.3, loc.wifi_mbps * 0.45);
    ts.mean_dwell = msec(250);
    s.trace = std::make_shared<DeliveryTrace>(two_state_trace(ts, sec(2), r));
    s.one_way_delay = loc.wifi_one_way;
    s.queue_packets = 64;
    s.loss_rate = 0.004;  // residual wireless loss after link-layer ARQ
    s.loss_seed = r.next_u64();
    return s;
  };
  auto lte_link = [&](const char* label) {
    LinkSpec s;
    Rng r = rng.fork(label);
    TwoStateSpec ts;
    ts.good_mbps = loc.lte_mbps * 1.4;
    ts.bad_mbps = std::max(0.3, loc.lte_mbps * 0.4);
    ts.mean_dwell = msec(300);
    s.trace = std::make_shared<DeliveryTrace>(two_state_trace(ts, sec(2), r));
    s.one_way_delay = loc.lte_one_way;
    s.queue_packets = 120;  // cellular bufferbloat
    s.loss_rate = 0.002;    // HARQ hides most cellular loss
    s.loss_seed = r.next_u64();
    return s;
  };
  MpNetworkSetup setup;
  setup.paths[PathId::kWifi].up = wifi_link("wifi-up");
  setup.paths[PathId::kWifi].down = wifi_link("wifi-down");
  setup.paths[PathId::kLte].up = lte_link("lte-up");
  setup.paths[PathId::kLte].down = lte_link("lte-down");
  return setup;
}

}  // namespace mn
