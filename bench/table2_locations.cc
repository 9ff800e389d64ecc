// Regenerates Table 2: the 20 MPTCP measurement locations, augmented
// with the single-path TCP throughput measured over each location's
// emulated links (1 MB downloads, as the modified Cell vs WiFi measures).
#include <iostream>

#include "common.hpp"
#include "measure/locations20.hpp"
#include "tcp/flow.hpp"

int main() {
  using namespace mn;
  bench::print_header("Table 2", "Locations where MPTCP measurements were conducted");
  bench::print_paper(
      "20 locations in 7 US cities: cafes, malls, campuses, hotels, "
      "airports, apartments; 7 locations measured with both CC algorithms.");

  Table t{{"ID", "City", "Description", "WiFi Mbit/s", "LTE Mbit/s", "Faster",
           "CC study"}};
  for (const auto& loc : table2_locations()) {
    double wifi_tput = 0.0;
    double lte_tput = 0.0;
    {
      Simulator sim;
      const auto setup = location_setup(loc, /*seed=*/1);
      DuplexPath wifi{sim, setup.paths[PathId::kWifi].up, setup.paths[PathId::kWifi].down};
      wifi_tput = run_bulk_flow(sim, wifi, 1'000'000, Direction::kDownload).throughput_mbps;
    }
    {
      Simulator sim;
      const auto setup = location_setup(loc, /*seed=*/1);
      DuplexPath lte{sim, setup.paths[PathId::kLte].up, setup.paths[PathId::kLte].down};
      lte_tput = run_bulk_flow(sim, lte, 1'000'000, Direction::kDownload).throughput_mbps;
    }
    t.add_row({std::to_string(loc.id), loc.city, loc.description,
               Table::num(wifi_tput, 2), Table::num(lte_tput, 2),
               wifi_tput >= lte_tput ? "WiFi" : "LTE",
               loc.cc_study_member ? "yes" : ""});
  }
  t.print(std::cout);
  bench::print_measured("20 locations, mixed WiFi/LTE dominance, 7 CC-study members");
  return 0;
}
