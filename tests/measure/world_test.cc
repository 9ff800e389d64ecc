#include "measure/world.hpp"

#include <gtest/gtest.h>

namespace mn {
namespace {

TEST(World, Has22Table1Clusters) {
  const auto world = table1_world();
  EXPECT_EQ(world.size(), 22u);
  EXPECT_EQ(world.front().name, "US (Boston, MA)");
  EXPECT_EQ(world.front().runs, 884);
}

TEST(World, RunCountsMatchTable1Order) {
  const auto world = table1_world();
  for (std::size_t i = 1; i < world.size(); ++i) {
    EXPECT_GE(world[i - 1].runs, world[i].runs) << "Table 1 is ordered by runs";
  }
}

TEST(World, CalibrationPlacesLteRelativeToWifi) {
  // High LTE-win clusters must have LTE medians above WiFi; low-win
  // clusters below (allowing the TCP-pipeline bias headroom).
  for (const auto& c : table1_world()) {
    if (c.lte_win_target >= 0.7) {
      EXPECT_GT(c.rate[PathId::kLte].median_mbps, c.rate[PathId::kWifi].median_mbps) << c.name;
    }
    if (c.lte_win_target <= 0.1) {
      EXPECT_LT(c.rate[PathId::kLte].median_mbps, c.rate[PathId::kWifi].median_mbps * 1.05)
          << c.name;
    }
  }
}

TEST(World, CalibrationHitsWinTargetEmpirically) {
  // Sample link rates directly.  The raw-rate win fraction intentionally
  // OVERSHOOTS the target: the calibration bakes in a TCP-pipeline bias
  // (TCP extracts less of a bursty LTE link), so the *measured* win
  // fraction — checked in campaign_test — lands on target while the
  // raw-rate fraction sits above it.
  const auto cluster = make_cluster("test", {0, 0}, 100, 0.40, 10.0);
  Rng rng{123};
  int wins = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double wifi = cluster.rate[PathId::kWifi].sample(rng);
    const double lte = cluster.rate[PathId::kLte].sample(rng);
    wins += lte > wifi;
  }
  const double raw = static_cast<double>(wins) / n;
  EXPECT_GT(raw, 0.40);
  EXPECT_LT(raw, 0.85);
}

TEST(World, RateSamplesStayInPhysicalRange) {
  Rng rng{5};
  const auto cluster = make_cluster("x", {0, 0}, 1, 0.5, 10.0);
  for (int i = 0; i < 1000; ++i) {
    const double r = cluster.rate[PathId::kWifi].sample(rng);
    EXPECT_GE(r, 0.3);
    EXPECT_LE(r, 60.0);
  }
}

TEST(World, DelaySamplesStayInRange) {
  Rng rng{6};
  const auto cluster = make_cluster("x", {0, 0}, 1, 0.5, 10.0);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = cluster.delay[PathId::kLte].sample(rng);
    EXPECT_GE(d.usec(), msec(2).usec());
    EXPECT_LE(d.usec(), msec(400).usec());
  }
}

TEST(World, ZeroWinTargetIsClampedNotDegenerate) {
  const auto c = make_cluster("sweden", {59.6, 18.6}, 16, 0.0, 16.0);
  EXPECT_GT(c.rate[PathId::kLte].median_mbps, 0.0);
  EXPECT_LT(c.rate[PathId::kLte].median_mbps, c.rate[PathId::kWifi].median_mbps / 2.0);
}

}  // namespace
}  // namespace mn
