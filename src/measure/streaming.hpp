// Bounded-memory campaign aggregation: Table-1 columns computed online.
//
// The classic pipeline keeps every RunRecord (and inside it, per-run
// vectors) until analysis time — O(runs) memory, fine at 750 users,
// fatal at a million.  StreamingRunStats is the O(clusters) answer: one
// StreamingClusterStats per Table-1 cluster, each a fixed set of
// counters plus mergeable QuantileSketches, fed one sample at a time as
// flows complete.
//
// Merge discipline: sketches merge bit-exactly in any order, so a
// sharded world (one shard per cluster, or per thread) produces the
// same digest bits no matter how many workers ran it — the property the
// MN_THREADS golden test pins.  Merging is index-aligned: both sides
// must describe the same cluster list (same construction), which is the
// only shape the parallel runner ever produces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure/campaign.hpp"
#include "measure/world.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mn {

/// Online accumulator for one cluster's Table-1 row.
struct StreamingClusterStats {
  std::string name;
  std::uint64_t users_started = 0;
  std::uint64_t users_completed = 0;  // finished every probe they attempted
  std::uint64_t both_measured = 0;    // measured both WiFi and LTE
  std::uint64_t lte_wins = 0;         // LTE downlink beat WiFi downlink

  PerPath<QuantileSketch> down_mbps;
  QuantileSketch mptcp_down_mbps;
  PerPath<QuantileSketch> rtt_ms;

  /// Bit-exact, order-free (counter adds + sketch merges).
  void merge_from(const StreamingClusterStats& other);

  [[nodiscard]] double lte_win_fraction() const {
    return both_measured == 0
               ? 0.0
               : static_cast<double>(lte_wins) / static_cast<double>(both_measured);
  }
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Whole-run accumulator: one StreamingClusterStats per cluster, in
/// cluster order.
class StreamingRunStats {
 public:
  StreamingRunStats() = default;
  /// One (empty) accumulator per cluster, in `world` order.
  explicit StreamingRunStats(const std::vector<ClusterSpec>& world);

  [[nodiscard]] std::size_t size() const { return clusters_.size(); }
  [[nodiscard]] StreamingClusterStats& cluster(std::size_t i) { return clusters_[i]; }
  [[nodiscard]] const StreamingClusterStats& cluster(std::size_t i) const {
    return clusters_[i];
  }

  /// Index-aligned merge; both sides must have the same cluster list.
  void merge_from(const StreamingRunStats& other);

  /// Bridge from the private-link campaign: fold one finished
  /// RunRecord into cluster `cluster_idx` using the same filtering the
  /// batch analysis applies (failed runs are dropped; the win counter
  /// uses RunRecord's own lte_wins() criterion).  This is what makes the
  /// shared-world and campaign pipelines comparable quantile-for-
  /// quantile in EXPERIMENTS.md.
  void add_run_record(std::size_t cluster_idx, const RunRecord& rec);

  /// Canonical text form of every cluster's counters and quantiles
  /// (%.17g — all the bits of each double).  Two runs are
  /// result-identical iff their digests are byte-identical; golden
  /// tests compare this across MN_THREADS and dispatch modes.
  [[nodiscard]] std::string digest() const;

  /// Table-1-shaped rendering (per-cluster medians and win fractions).
  [[nodiscard]] Table table1() const;

  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  std::vector<StreamingClusterStats> clusters_;
};

}  // namespace mn
