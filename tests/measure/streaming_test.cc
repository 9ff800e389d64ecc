// StreamingRunStats: the O(clusters) aggregation layer between the
// shared world and Table-1 output — merge discipline, the RunRecord
// bridge from the private-link campaign, and the digest contract.
#include "measure/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "measure/campaign.hpp"
#include "measure/world.hpp"

namespace mn {
namespace {

RunRecord record(double wifi_down, double lte_down, bool failed = false) {
  RunRecord r;
  r.measured[PathId::kWifi] = true;
  r.measured[PathId::kLte] = true;
  r.down_mbps[PathId::kWifi] = wifi_down;
  r.down_mbps[PathId::kLte] = lte_down;
  r.rtt_ms[PathId::kWifi] = 40.0;
  r.rtt_ms[PathId::kLte] = 60.0;
  r.failed = failed;
  return r;
}

TEST(StreamingRunStats, RunRecordBridgeMatchesCampaignFiltering) {
  const auto world = table1_world();
  StreamingRunStats stats(world);
  ASSERT_EQ(stats.size(), world.size());

  stats.add_run_record(0, record(5.0, 10.0));          // LTE wins
  stats.add_run_record(0, record(10.0, 5.0));          // WiFi wins
  stats.add_run_record(0, record(1.0, 2.0, /*failed=*/true));  // filtered
  RunRecord wifi_only = record(7.0, 0.0);
  wifi_only.measured[PathId::kLte] = false;  // incomplete: out of the denominator
  stats.add_run_record(0, wifi_only);

  const StreamingClusterStats& c = stats.cluster(0);
  EXPECT_EQ(c.users_started, 4u);
  EXPECT_EQ(c.users_completed, 3u);
  EXPECT_EQ(c.both_measured, 2u);
  EXPECT_EQ(c.lte_wins, 1u);
  EXPECT_DOUBLE_EQ(c.lte_win_fraction(), 0.5);
  EXPECT_EQ(c.down_mbps[PathId::kWifi].count(), 3u);  // wifi-only run still sampled
  EXPECT_EQ(c.down_mbps[PathId::kLte].count(), 2u);
}

TEST(StreamingRunStats, IndexAlignedMergeIsExact) {
  const auto world = table1_world();
  StreamingRunStats whole(world);
  StreamingRunStats shard_a(world);
  StreamingRunStats shard_b(world);
  for (int i = 0; i < 40; ++i) {
    const auto rec = record(1.0 + i, 41.0 - i);
    const std::size_t cluster = static_cast<std::size_t>(i) % world.size();
    whole.add_run_record(cluster, rec);
    (i % 2 ? shard_a : shard_b).add_run_record(cluster, rec);
  }
  StreamingRunStats merged(world);
  merged.merge_from(shard_a);
  merged.merge_from(shard_b);
  EXPECT_EQ(merged.digest(), whole.digest());

  StreamingRunStats reversed(world);
  reversed.merge_from(shard_b);
  reversed.merge_from(shard_a);
  EXPECT_EQ(reversed.digest(), whole.digest());
}

TEST(StreamingRunStats, DigestDistinguishesDifferentData) {
  const auto world = table1_world();
  StreamingRunStats a(world);
  StreamingRunStats b(world);
  a.add_run_record(0, record(5.0, 10.0));
  b.add_run_record(0, record(5.0, 10.5));
  EXPECT_NE(a.digest(), b.digest());
}

TEST(StreamingRunStats, Table1HasOneRowPerClusterAndBoundedMemory) {
  const auto world = table1_world();
  StreamingRunStats stats(world);
  for (int i = 0; i < 10000; ++i) {
    stats.add_run_record(static_cast<std::size_t>(i) % world.size(),
                         record(3.0 + (i % 7), 5.0 + (i % 11)));
  }
  const Table t = stats.table1();
  EXPECT_EQ(t.rows().size(), world.size());
  // O(clusters), not O(runs): 22 clusters x 5 sketches stays in the
  // couple-of-MB range no matter how many records streamed through.
  EXPECT_LT(stats.memory_bytes(), 8u << 20);
  EXPECT_GT(stats.memory_bytes(), 0u);
}

}  // namespace
}  // namespace mn
