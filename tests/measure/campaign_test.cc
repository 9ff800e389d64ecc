#include "measure/campaign.hpp"

#include <gtest/gtest.h>

namespace mn {
namespace {

std::vector<ClusterSpec> tiny_world() {
  return {make_cluster("FastWiFi", {40.0, -70.0}, 12, 0.10, 14.0),
          make_cluster("FastLTE", {10.0, 100.0}, 12, 0.85, 4.0)};
}

TEST(Campaign, ProducesRequestedRunCounts) {
  CampaignOptions opt;
  opt.incomplete_probability = 0.0;
  const auto runs = run_campaign(tiny_world(), opt);
  EXPECT_EQ(runs.size(), 24u);
  for (const auto& r : runs) EXPECT_TRUE(r.complete());
}

TEST(Campaign, RunScaleShrinksTheCampaign) {
  CampaignOptions opt;
  opt.run_scale = 0.25;
  const auto runs = run_campaign(tiny_world(), opt);
  EXPECT_EQ(runs.size(), 6u);
}

TEST(Campaign, IncompleteRunsAreGeneratedAndFiltered) {
  CampaignOptions opt;
  opt.incomplete_probability = 0.5;
  const auto runs = run_campaign(tiny_world(), opt);
  const auto complete = complete_runs(runs);
  EXPECT_LT(complete.size(), runs.size());
  for (const auto& r : complete) EXPECT_TRUE(r.complete());
}

TEST(Campaign, MeasuredThroughputsArePositiveAndPlausible) {
  CampaignOptions opt;
  opt.incomplete_probability = 0.0;
  opt.run_scale = 0.5;
  for (const auto& r : complete_runs(run_campaign(tiny_world(), opt))) {
    EXPECT_GT(r.down_mbps[PathId::kWifi], 0.0);
    EXPECT_LT(r.down_mbps[PathId::kWifi], 60.0);
    EXPECT_GT(r.down_mbps[PathId::kLte], 0.0);
    EXPECT_GT(r.rtt_ms[PathId::kWifi], 1.0);
    EXPECT_GT(r.rtt_ms[PathId::kLte], 1.0);
  }
}

TEST(Campaign, WinFractionsFollowClusterCalibration) {
  CampaignOptions opt;
  opt.incomplete_probability = 0.0;
  opt.run_scale = 3.0;  // 36 runs per cluster
  const auto runs = complete_runs(run_campaign(tiny_world(), opt));
  int fast_wifi_wins = 0;
  int fast_wifi_n = 0;
  int fast_lte_wins = 0;
  int fast_lte_n = 0;
  for (const auto& r : runs) {
    if (r.cluster == "FastWiFi") {
      ++fast_wifi_n;
      fast_wifi_wins += r.lte_wins();
    } else {
      ++fast_lte_n;
      fast_lte_wins += r.lte_wins();
    }
  }
  EXPECT_LT(static_cast<double>(fast_wifi_wins) / fast_wifi_n, 0.35);
  EXPECT_GT(static_cast<double>(fast_lte_wins) / fast_lte_n, 0.6);
}

TEST(Campaign, DeterministicForSameSeed) {
  CampaignOptions opt;
  opt.run_scale = 0.25;
  const auto a = run_campaign(tiny_world(), opt);
  const auto b = run_campaign(tiny_world(), opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].down_mbps[PathId::kWifi], b[i].down_mbps[PathId::kWifi]);
    EXPECT_DOUBLE_EQ(a[i].rtt_ms[PathId::kLte], b[i].rtt_ms[PathId::kLte]);
  }
}

TEST(Campaign, CsvRoundTripIsExact) {
  CampaignOptions opt;
  opt.incomplete_probability = 0.0;
  opt.run_scale = 0.25;
  const auto runs = complete_runs(run_campaign(tiny_world(), opt));
  ASSERT_FALSE(runs.empty());
  const auto back = from_csv(parse_csv(to_csv(runs).str()));
  ASSERT_EQ(back.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(back[i].cluster, runs[i].cluster);
    // Bit-exact: format_double guarantees the shortest round-trip form.
    EXPECT_EQ(back[i].pos.lat_deg, runs[i].pos.lat_deg);
    EXPECT_EQ(back[i].pos.lon_deg, runs[i].pos.lon_deg);
    EXPECT_EQ(back[i].up_mbps[PathId::kWifi], runs[i].up_mbps[PathId::kWifi]);
    EXPECT_EQ(back[i].down_mbps[PathId::kWifi], runs[i].down_mbps[PathId::kWifi]);
    EXPECT_EQ(back[i].up_mbps[PathId::kLte], runs[i].up_mbps[PathId::kLte]);
    EXPECT_EQ(back[i].down_mbps[PathId::kLte], runs[i].down_mbps[PathId::kLte]);
    EXPECT_EQ(back[i].rtt_ms[PathId::kWifi], runs[i].rtt_ms[PathId::kWifi]);
    EXPECT_EQ(back[i].rtt_ms[PathId::kLte], runs[i].rtt_ms[PathId::kLte]);
  }
  // And the serialized text itself is a fixed point.
  EXPECT_EQ(to_csv(back).str(), to_csv(runs).str());
}

// Backward compatibility, locked with a checked-in fixture: CSVs written
// before the observability subsystem added the m_retransmits/m_rto/
// m_drops columns must keep parsing cleanly, with an empty metrics
// snapshot (find_col, not col, on the optional columns).
TEST(Campaign, FromCsvParsesPreObservabilityFixture) {
  const auto runs = from_csv(load_csv(std::string{MN_TEST_DATA_DIR} +
                                      "/measure/pre_pr4_campaign.csv"));
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].cluster, "boston");
  EXPECT_EQ(runs[2].cluster, "seattle");
  EXPECT_DOUBLE_EQ(runs[0].down_mbps[PathId::kWifi], 11.5);
  EXPECT_DOUBLE_EQ(runs[2].rtt_ms[PathId::kLte], 61.5);
  for (const auto& r : runs) {
    EXPECT_TRUE(r.complete());
    // No metrics columns -> no reconstructed snapshot, zeroed metrics.
    EXPECT_TRUE(r.metrics.entries.empty());
    EXPECT_EQ(r.metrics.value_of("tcp.retransmits"), 0);
    EXPECT_EQ(r.metrics.sum_with_prefix("drop."), 0);
  }
  // Re-exporting legacy rows emits the modern columns with zeros.
  const std::string text = to_csv(runs).str();
  EXPECT_NE(text.find("m_retransmits"), std::string::npos);
  const auto back = from_csv(parse_csv(text));
  ASSERT_EQ(back.size(), runs.size());
  EXPECT_DOUBLE_EQ(back[1].down_mbps[PathId::kLte], runs[1].down_mbps[PathId::kLte]);
}

TEST(Campaign, FromCsvRejectsMalformedRowsWithRowNumber) {
  const std::string header =
      "cluster,lat,lon,wifi_up,wifi_down,lte_up,lte_down,wifi_rtt_ms,lte_rtt_ms";
  // Non-numeric field: row is named in the error.
  try {
    (void)from_csv(parse_csv(header + "\nA,1,2,3,4,5,6,7,8\nB,1,2,junk,4,5,6,7,8\n"));
    FAIL() << "expected malformed row to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("row 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string{e.what()}.find("junk"), std::string::npos) << e.what();
  }
  // Trailing garbage that std::stod would silently accept.
  EXPECT_THROW((void)from_csv(parse_csv(header + "\nA,1,2,3.5x,4,5,6,7,8\n")),
               std::runtime_error);
  // Hand-built short row: must be a clear error, not an out-of-bounds read.
  CsvData data = parse_csv(header + "\nA,1,2,3,4,5,6,7,8\n");
  data.rows.push_back({"B", "1", "2"});
  try {
    (void)from_csv(data);
    FAIL() << "expected short row to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("row 2"), std::string::npos) << e.what();
  }
  // Missing column: still the CsvData::col error.
  EXPECT_THROW((void)from_csv(parse_csv("cluster,lat\nA,1\n")), std::runtime_error);
}

// The plan/execute determinism contract: the execute phase owns all of
// its pre-drawn inputs, so the worker count can never change a byte of
// output.  to_csv serializes every double at full round-trip precision,
// making this a golden byte-identity check.
TEST(Campaign, ParallelOutputIsByteIdenticalToSerial) {
  CampaignOptions opt;
  opt.run_scale = 0.5;
  opt.incomplete_probability = 0.2;
  opt.fault_probability = 0.15;  // exercise the fault path too
  opt.parallelism = 0;
  const auto serial = run_campaign(tiny_world(), opt);
  const std::string golden = to_csv(serial).str();
  for (int workers : {1, 4}) {
    opt.parallelism = workers;
    const auto parallel = run_campaign(tiny_world(), opt);
    ASSERT_EQ(parallel.size(), serial.size()) << "workers=" << workers;
    EXPECT_EQ(to_csv(parallel).str(), golden) << "workers=" << workers;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].failed, serial[i].failed);
      EXPECT_EQ(parallel[i].failure_reason, serial[i].failure_reason);
      EXPECT_EQ(parallel[i].measured[PathId::kWifi], serial[i].measured[PathId::kWifi]);
      EXPECT_EQ(parallel[i].measured[PathId::kLte], serial[i].measured[PathId::kLte]);
    }
  }
}

TEST(Campaign, PlanPhaseIsCheapAndExecuteMatchesRunCampaign) {
  CampaignOptions opt;
  opt.run_scale = 0.25;
  const auto plans = plan_campaign(tiny_world(), opt);
  ASSERT_EQ(plans.size(), 6u);
  std::vector<RunRecord> records;
  records.reserve(plans.size());
  for (const auto& p : plans) records.push_back(execute_run(p, opt));
  EXPECT_EQ(to_csv(records).str(), to_csv(run_campaign(tiny_world(), opt)).str());
}

// Acceptance gate of the fault-injection PR: a campaign with 10% of its
// runs fault-injected finishes end to end — a faulted probe becomes a
// failed RunRecord with a reason, never an aborted campaign.
TEST(Campaign, SurvivesInjectedFaultsAndRecordsFailures) {
  CampaignOptions opt;
  opt.seed = 2;  // deterministic: this seed faults several of the 72 runs
  opt.incomplete_probability = 0.0;
  opt.run_scale = 3.0;
  opt.fault_probability = 0.10;
  const auto runs = run_campaign(tiny_world(), opt);
  EXPECT_EQ(runs.size(), 72u);
  int failed = 0;
  for (const auto& r : runs) {
    if (!r.failed) continue;
    ++failed;
    EXPECT_FALSE(r.failure_reason.empty());
    EXPECT_FALSE(r.complete());
  }
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, 72);
  EXPECT_EQ(complete_runs(runs).size(), runs.size() - static_cast<std::size_t>(failed));
}

TEST(Campaign, ZeroFaultProbabilityPreservesLegacyResults) {
  CampaignOptions legacy;
  legacy.run_scale = 0.5;
  CampaignOptions with_knob = legacy;
  with_knob.fault_probability = 0.0;  // default, spelled out
  const auto a = run_campaign(tiny_world(), legacy);
  const auto b = run_campaign(tiny_world(), with_knob);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].down_mbps[PathId::kWifi], b[i].down_mbps[PathId::kWifi]);
    EXPECT_DOUBLE_EQ(a[i].down_mbps[PathId::kLte], b[i].down_mbps[PathId::kLte]);
    EXPECT_FALSE(b[i].failed);
  }
}

TEST(Analysis, DiffDistributionsHaveRightSigns) {
  CampaignOptions opt;
  opt.incomplete_probability = 0.0;
  const auto runs = complete_runs(run_campaign(tiny_world(), opt));
  const auto a = analyze_campaign(runs);
  EXPECT_EQ(a.up_diff.size(), runs.size());
  EXPECT_EQ(a.down_diff.size(), runs.size());
  // Mixed world: both positive and negative diffs must exist.
  EXPECT_GT(a.down_diff.max(), 0.0);
  EXPECT_LT(a.down_diff.min(), 0.0);
  EXPECT_GT(a.lte_win_combined(), 0.0);
  EXPECT_LT(a.lte_win_combined(), 1.0);
}

TEST(Analysis, RttWinFractionIsSane) {
  CampaignOptions opt;
  opt.incomplete_probability = 0.0;
  opt.run_scale = 2.0;
  const auto a = analyze_campaign(complete_runs(run_campaign(tiny_world(), opt)));
  EXPECT_GE(a.lte_rtt_win(), 0.0);
  EXPECT_LE(a.lte_rtt_win(), 0.6);  // LTE usually has higher RTT
}

}  // namespace
}  // namespace mn
