#include "measure/locations20.hpp"

#include <gtest/gtest.h>

#include "tcp/flow.hpp"

namespace mn {
namespace {

TEST(Locations20, HasExactlyTwenty) {
  const auto& locs = table2_locations();
  ASSERT_EQ(locs.size(), 20u);
  for (std::size_t i = 0; i < locs.size(); ++i) {
    EXPECT_EQ(locs[i].id, static_cast<int>(i) + 1);
    EXPECT_FALSE(locs[i].city.empty());
    EXPECT_FALSE(locs[i].description.empty());
    EXPECT_GT(locs[i].wifi_mbps, 0.0);
    EXPECT_GT(locs[i].lte_mbps, 0.0);
  }
}

TEST(Locations20, SevenCcStudyMembers) {
  int n = 0;
  for (const auto& l : table2_locations()) n += l.cc_study_member;
  EXPECT_EQ(n, 7);  // Section 3.5: "at 7 of the 20 locations"
}

TEST(Locations20, SevenCitiesCovered) {
  std::set<std::string> cities;
  for (const auto& l : table2_locations()) cities.insert(l.city);
  EXPECT_EQ(cities.size(), 7u);  // paper: "7 cities in the United States"
}

TEST(Locations20, MixOfWifiAndLteDominantSites) {
  int wifi_better = 0;
  int lte_better = 0;
  for (const auto& l : table2_locations()) {
    (l.wifi_mbps > l.lte_mbps ? wifi_better : lte_better)++;
  }
  EXPECT_GE(wifi_better, 5);
  EXPECT_GE(lte_better, 5);
}

TEST(Locations20, SetupBuildsTraceLinks) {
  const auto& loc = table2_locations().front();
  const auto setup = location_setup(loc, /*seed=*/1);
  ASSERT_NE(setup.paths[PathId::kWifi].down.trace, nullptr);
  ASSERT_NE(setup.paths[PathId::kLte].down.trace, nullptr);
  // Two-state traces average between their good and bad rates; the
  // long-run mean should sit within ~50% of the nominal rate.
  EXPECT_NEAR(setup.paths[PathId::kWifi].down.trace->average_rate_mbps(), loc.wifi_mbps,
              loc.wifi_mbps * 0.5);
}

TEST(Locations20, SetupIsDeterministicPerSeed) {
  const auto& loc = table2_locations()[3];
  const auto a = location_setup(loc, 7);
  const auto b = location_setup(loc, 7);
  EXPECT_EQ(a.paths[PathId::kWifi].down.trace->to_mahimahi(),
            b.paths[PathId::kWifi].down.trace->to_mahimahi());
  const auto c = location_setup(loc, 8);
  EXPECT_NE(a.paths[PathId::kWifi].down.trace->to_mahimahi(),
            c.paths[PathId::kWifi].down.trace->to_mahimahi());
}

TEST(Locations20, TcpOverLocationAchievesRoughlyNominalRate) {
  const auto& loc = table2_locations()[9];  // Boston apartment: WiFi 20 Mbit/s
  const auto setup = location_setup(loc, 3);
  Simulator sim;
  DuplexPath wifi{sim, setup.paths[PathId::kWifi].up, setup.paths[PathId::kWifi].down};
  const auto r = run_bulk_flow(sim, wifi, 1'000'000, Direction::kDownload);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.throughput_mbps, loc.wifi_mbps * 0.4);
  EXPECT_LT(r.throughput_mbps, loc.wifi_mbps * 1.1);
}

}  // namespace
}  // namespace mn
