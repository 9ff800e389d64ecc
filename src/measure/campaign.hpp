// The Cell vs WiFi measurement campaign (paper Section 2, Figure 2).
//
// Executes the app's measurement-collection flowchart against the
// simulated world: per run, associate to WiFi, transfer 1 MB up and
// down, switch to cellular, repeat, ping both, upload the record.  Runs
// can be incomplete (user had WiFi or cellular disabled) and are
// filtered exactly like the paper filters its dataset.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "measure/world.hpp"
#include "mptcp/mptcp.hpp"
#include "obs/metrics.hpp"
#include "store/key.hpp"
#include "store/store.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace mn {

struct RunRecord {
  std::string cluster;  // ground-truth origin (for cluster labelling)
  GeoPoint pos;
  PerPath<bool> measured;
  PerPath<double> up_mbps;
  PerPath<double> down_mbps;
  PerPath<double> rtt_ms;  // 10-ping average
  /// The run aborted (probe threw or its flow stalled/timed out).  Failed
  /// runs stay in the record list — the campaign never aborts wholesale —
  /// but are excluded from the analysis like the paper's filtered runs.
  bool failed = false;
  std::string failure_reason;
  /// MPTCP middlebox probe (runs when the campaign sweeps a strip
  /// probability): did this run perform one, and how did negotiation
  /// settle.  negotiated != achieved is the Aschenbrenner distinction —
  /// MP_CAPABLE can survive while every MP_JOIN is eaten.
  bool mp_probed = false;
  bool negotiated_mp = false;
  bool achieved_mp = false;
  /// Why multipath degraded ("" when it did not): "capable_stripped",
  /// "syn_dropped", "join_rejected" or "mid_flow_dss".
  std::string fallback_reason;
  /// Per-radio energy of the MPTCP probe (Figure-16 power model,
  /// integrated to flow end + 20 s so the LTE tail is fully counted).
  /// Zero when mp_probed is false.
  PerPath<double> energy_j;
  /// Scheduler the MPTCP probe ran under ("" when mp_probed is false).
  std::string scheduler;
  /// Per-run observability snapshot: every probe simulator in this run
  /// recorded into one private ObsHub, snapshotted here.  Merge across
  /// runs with merge_run_metrics() — the result is bit-identical at any
  /// parallelism because records stay in plan order.
  obs::MetricsSnapshot metrics;

  [[nodiscard]] bool complete() const {
    return std::ranges::all_of(measured, std::identity{}) && !failed;
  }
  /// The Table-1 win criterion: LTE faster on the downlink.
  [[nodiscard]] bool lte_wins() const {
    return down_mbps[PathId::kLte] > down_mbps[PathId::kWifi];
  }
};

struct CampaignOptions {
  std::int64_t transfer_bytes = 1'000'000;  // the app's 1 MB probes
  /// Probability a run is incomplete (user disabled one network).
  double incomplete_probability = 0.08;
  /// Scale factor on each cluster's run count (1.0 = full Table 1).
  double run_scale = 1.0;
  std::uint64_t seed = 20130901;  // the app's launch month
  /// Probability a run's probes execute under a random FaultPlan
  /// (chaos-in-the-campaign; 0 keeps the legacy deterministic stream).
  double fault_probability = 0.0;
  /// When > 0, runs that measure both networks also perform an MPTCP
  /// probe through option-sanitising middleboxes: the WiFi path's box
  /// strips MP_CAPABLE with this probability and the LTE path's box
  /// strips MP_JOIN with the same probability (box-level draws, one
  /// fixed middlebox per run).  Sweeping this knob over the Table-1
  /// grid reproduces the negotiated-vs-achieved multipath table.  All
  /// draws are gated on the knob, so 0 keeps the legacy campaign
  /// stream, records, keys, and CSV byte-identical.
  double middlebox_strip_probability = 0.0;
  /// Bytes moved by the MPTCP middlebox probe (smaller than the 1 MB
  /// app probes: negotiation outcome, not throughput, is the signal).
  std::int64_t mp_probe_bytes = 250'000;
  /// Scheduler for the MPTCP probe.  Only keys (and only changes the
  /// result) for runs that carry a middlebox probe, so the legacy
  /// campaign stream and keys stay byte-identical at the default.
  MpScheduler mp_scheduler = MpScheduler::kLowestRtt;
  /// Worker threads for the execute phase: 0/1 = serial, negative =
  /// follow MN_THREADS.  Output is bit-identical for every value —
  /// the plan phase pre-draws all randomness serially and each run
  /// executes against a private forked Rng.
  int parallelism = -1;
  /// Optional result store, consulted through store::memoized_map:
  /// hits replay, misses execute and are put.  Records, merged
  /// metrics, and CSV are byte-identical whether a run was simulated or
  /// replayed from cache (the store's own hit/miss counters live on the
  /// store, never in the run metrics).  Not owned.
  store::Store* store = nullptr;
};

/// One pre-planned campaign run: every random input the run needs,
/// drawn serially from the seed, so execution is a pure function of the
/// plan (and therefore safe and deterministic to run on any thread).
struct RunPlan {
  std::string cluster;
  GeoPoint pos;
  /// The user had this network disabled: no rate or delay is drawn.
  PerPath<bool> skip;
  PerPath<double> rate_mbps;
  PerPath<Duration> delay;
  bool has_faults = false;
  FaultPlan faults;
  /// MPTCP middlebox probe (pre-drawn when the campaign sweeps
  /// middlebox_strip_probability and this run measures both networks).
  bool has_middlebox = false;
  double middlebox_strip = 0.0;
  std::uint64_t middlebox_seed = 0;
  /// Seed of the run-private Rng (link-trace generation noise).
  std::uint64_t probe_seed = 0;
};

/// Serial plan phase: pre-draw every per-run parameter from the seeded
/// campaign stream.  Cheap (no simulation).
[[nodiscard]] std::vector<RunPlan> plan_campaign(const std::vector<ClusterSpec>& world,
                                                 const CampaignOptions& options = {});

/// Execute one pre-drawn run.  Touches no shared mutable state: safe to
/// call concurrently for distinct plans.
[[nodiscard]] RunRecord execute_run(const RunPlan& plan, const CampaignOptions& options = {});

/// Execute the campaign over `world`; returns one record per attempted
/// run (incomplete ones included — filter with complete()).  Equivalent
/// to plan_campaign + execute_run per plan; records are in plan order
/// and bit-identical for every options.parallelism value.
[[nodiscard]] std::vector<RunRecord> run_campaign(const std::vector<ClusterSpec>& world,
                                                  const CampaignOptions& options = {});

/// Keep only complete runs (the paper's filtering step).
[[nodiscard]] std::vector<RunRecord> complete_runs(const std::vector<RunRecord>& all);

/// Merge every run's metrics snapshot in record (= plan) order: the
/// campaign-wide counters/histograms.  Serial, deterministic.
[[nodiscard]] obs::MetricsSnapshot merge_run_metrics(const std::vector<RunRecord>& runs);

/// Content key of one campaign run: a canonical hash of the pre-drawn
/// plan plus the result-affecting values (transfer_bytes, the fixed
/// ping count, and the fixed fault watchdog when the plan carries
/// faults).  Plan-phase inputs like seed, run_scale, and parallelism
/// deliberately do NOT key — they shape which plans exist, not what one
/// plan produces.
[[nodiscard]] store::ScenarioKey scenario_key(const RunPlan& plan,
                                              const CampaignOptions& options);

/// Store blob codec for RunRecord (canonical little-endian encoding,
/// bit-exact round trip including the metrics snapshot).  parse throws
/// std::runtime_error on any truncation/corruption — callers treat that
/// as a cache miss.
[[nodiscard]] std::string serialize_run_record(const RunRecord& rec);
[[nodiscard]] RunRecord parse_run_record(std::string_view blob);

/// CSV persistence (the app's "upload to the server at MIT").
[[nodiscard]] CsvWriter to_csv(const std::vector<RunRecord>& runs);
[[nodiscard]] std::vector<RunRecord> from_csv(const CsvData& data);

/// Aggregate distributions behind Figures 3 and 4.
struct CampaignAnalysis {
  EmpiricalDistribution up_diff;    // Tput(WiFi) - Tput(LTE), uplink
  EmpiricalDistribution down_diff;  // downlink
  EmpiricalDistribution rtt_diff;   // RTT(WiFi) - RTT(LTE), ms

  /// Fractions of samples where LTE wins (the shaded CDF regions).
  [[nodiscard]] double lte_win_uplink() const { return up_diff.fraction_below(0.0); }
  [[nodiscard]] double lte_win_downlink() const { return down_diff.fraction_below(0.0); }
  [[nodiscard]] double lte_win_combined() const;
  [[nodiscard]] double lte_rtt_win() const;
};

[[nodiscard]] CampaignAnalysis analyze_campaign(const std::vector<RunRecord>& runs);

}  // namespace mn
