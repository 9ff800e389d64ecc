#include "measure/clustering.hpp"

#include <gtest/gtest.h>

namespace mn {
namespace {

RunRecord run_at(double lat, double lon, const std::string& origin, bool lte_wins) {
  RunRecord r;
  r.pos = {lat, lon};
  r.cluster = origin;
  r.measured[PathId::kWifi] = r.measured[PathId::kLte] = true;
  r.down_mbps[PathId::kWifi] = lte_wins ? 5.0 : 10.0;
  r.down_mbps[PathId::kLte] = lte_wins ? 10.0 : 5.0;
  return r;
}

TEST(Clustering, EmptyInput) {
  const auto result = cluster_runs({});
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_TRUE(result.assignment.empty());
}

TEST(Clustering, SinglePointSingleCluster) {
  const auto result = cluster_runs({run_at(42.4, -71.1, "Boston", false)});
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].runs, 1);
  EXPECT_EQ(result.clusters[0].label, "Boston");
}

TEST(Clustering, NearbyRunsGroupTogether) {
  std::vector<RunRecord> runs;
  for (int i = 0; i < 10; ++i) {
    runs.push_back(run_at(42.4 + i * 0.01, -71.1, "Boston", false));
  }
  const auto result = cluster_runs(runs, 100.0);
  EXPECT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters[0].runs, 10);
}

TEST(Clustering, DistantRunsSplit) {
  std::vector<RunRecord> runs;
  runs.push_back(run_at(42.4, -71.1, "Boston", false));   // Boston
  runs.push_back(run_at(31.8, 35.0, "Israel", true));     // Israel
  runs.push_back(run_at(42.5, -71.0, "Boston", false));
  const auto result = cluster_runs(runs, 100.0);
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.clusters[0].runs, 2);  // sorted by size
  EXPECT_EQ(result.clusters[0].label, "Boston");
  EXPECT_EQ(result.clusters[1].label, "Israel");
}

TEST(Clustering, WinFractionPerCluster) {
  std::vector<RunRecord> runs;
  for (int i = 0; i < 8; ++i) runs.push_back(run_at(42.4, -71.1, "Boston", i < 2));
  const auto result = cluster_runs(runs);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_NEAR(result.clusters[0].lte_win_fraction, 0.25, 1e-9);
}

TEST(Clustering, AssignmentMatchesClusterOrder) {
  std::vector<RunRecord> runs;
  runs.push_back(run_at(42.4, -71.1, "Boston", false));
  runs.push_back(run_at(31.8, 35.0, "Israel", false));
  runs.push_back(run_at(42.45, -71.05, "Boston", false));
  const auto result = cluster_runs(runs);
  ASSERT_EQ(result.assignment.size(), 3u);
  EXPECT_EQ(result.assignment[0], result.assignment[2]);
  EXPECT_NE(result.assignment[0], result.assignment[1]);
  // Assignments index into result.clusters.
  for (int a : result.assignment) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, static_cast<int>(result.clusters.size()));
  }
}

TEST(Clustering, RunsWithin200KmOfEachOther) {
  // The paper's property: all runs in a group are within 2r of each other.
  std::vector<RunRecord> runs;
  for (int i = 0; i < 30; ++i) {
    runs.push_back(run_at(42.0 + (i % 5) * 0.2, -71.0 - (i % 3) * 0.2, "Boston", false));
  }
  for (int i = 0; i < 30; ++i) {
    runs.push_back(run_at(26.0 + (i % 5) * 0.2, -80.2, "Miami", false));
  }
  const auto result = cluster_runs(runs, 100.0);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      if (result.assignment[i] == result.assignment[j]) {
        EXPECT_LT(haversine_km(runs[i].pos, runs[j].pos), 200.0);
      }
    }
  }
}

}  // namespace
}  // namespace mn
