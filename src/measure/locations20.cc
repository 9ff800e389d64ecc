#include "measure/locations20.hpp"

#include <algorithm>
#include <string>

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

namespace {

/// How one network's links vary around a location's rate.
struct LinkModel {
  double good_factor;  // clear-channel rate over the location's rate
  double bad_factor;   // busy-channel rate over the location's rate
  Duration mean_dwell;
  int queue_packets;
  double loss_rate;
};

// Contention episodes: the channel alternates between clear and busy
// (other stations, other subscribers), which is what makes repeated runs
// at the same cafe differ — the paper's run-to-run noise.  WiFi keeps a
// residual wireless loss after link-layer ARQ; LTE buffers more
// (cellular bufferbloat) and HARQ hides most of its loss.
constexpr PerPath<LinkModel> kLinkModels{
    LinkModel{1.3, 0.45, msec(250), 64, 0.004},
    LinkModel{1.4, 0.4, msec(300), 120, 0.002},
};

}  // namespace

MpNetworkSetup location_setup(const Location20& loc, std::uint64_t seed) {
  Rng rng{seed * 1000003ULL + static_cast<std::uint64_t>(loc.id)};
  const PerPath<double> mbps{loc.wifi_mbps, loc.lte_mbps};
  const PerPath<Duration> one_way{loc.wifi_one_way, loc.lte_one_way};
  auto link = [&](PathId p, const char* dir) {
    const LinkModel& m = kLinkModels[p];
    LinkSpec s;
    Rng r = rng.fork(std::string{path_name(p)} + "-" + dir);
    TwoStateSpec ts;
    ts.good_mbps = mbps[p] * m.good_factor;
    ts.bad_mbps = std::max(0.3, mbps[p] * m.bad_factor);
    ts.mean_dwell = m.mean_dwell;
    s.trace = std::make_shared<DeliveryTrace>(two_state_trace(ts, sec(2), r));
    s.one_way_delay = one_way[p];
    s.queue_packets = m.queue_packets;
    s.loss_rate = m.loss_rate;
    s.loss_seed = r.next_u64();
    return s;
  };
  MpNetworkSetup setup;
  for (PathId p : kPaths) {
    setup.paths[p].up = link(p, "up");
    setup.paths[p].down = link(p, "down");
  }
  return setup;
}

}  // namespace mn
