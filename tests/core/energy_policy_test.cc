#include "core/energy_policy.hpp"

#include <gtest/gtest.h>

namespace mn {
namespace {

LinkEstimate est(double wifi_mbps, double lte_mbps, int wifi_rtt_ms = 20,
                 int lte_rtt_ms = 60) {
  LinkEstimate e;
  e.down_mbps[PathId::kWifi] = wifi_mbps;
  e.down_mbps[PathId::kLte] = lte_mbps;
  e.rtt[PathId::kWifi] = msec(wifi_rtt_ms);
  e.rtt[PathId::kLte] = msec(lte_rtt_ms);
  return e;
}

TEST(EnergyCost, SinglePathWifiIsCheapestRadio) {
  const auto wifi = estimate_energy_cost(est(10, 10),
                                         TransportConfig::single_path(PathId::kWifi),
                                         1'000'000);
  const auto lte = estimate_energy_cost(est(10, 10),
                                        TransportConfig::single_path(PathId::kLte),
                                        1'000'000);
  EXPECT_LT(wifi.radio_joules, lte.radio_joules);
}

TEST(EnergyCost, MptcpPaysBothRadios) {
  const auto mptcp = estimate_energy_cost(
      est(10, 10), TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled), 1'000'000);
  const auto wifi = estimate_energy_cost(est(10, 10),
                                         TransportConfig::single_path(PathId::kWifi),
                                         1'000'000);
  EXPECT_GT(mptcp.radio_joules, wifi.radio_joules);
  // ...but finishes sooner on comparable links.
  EXPECT_LT(mptcp.completion_s, wifi.completion_s);
}

TEST(EnergyCost, LteTailDominatesShortFlows) {
  // A 10 KB flow takes well under a second; the 15 s LTE tail dwarfs the
  // active energy (the Section-3.6.2 effect).
  const auto lte = estimate_energy_cost(est(10, 10),
                                        TransportConfig::single_path(PathId::kLte),
                                        10'000);
  EXPECT_GT(lte.radio_joules, 14.0);  // ~ tail_watts * 15 s
}

TEST(EnergyPolicy, ShortFlowsNeverUseMptcp) {
  const auto pick = energy_aware_policy(est(5, 20), 10'000);
  EXPECT_EQ(pick.kind, TransportKind::kSinglePath);
}

TEST(EnergyPolicy, EnergyOnlyPrefersWifiUnlessHopeless) {
  EnergyPolicyConfig cfg;
  cfg.joules_per_second = 0.0;  // pure energy minimization
  const auto pick = energy_aware_policy(est(8, 10), 1'000'000, cfg);
  EXPECT_EQ(pick.kind, TransportKind::kSinglePath);
  EXPECT_EQ(pick.path, PathId::kWifi);
}

TEST(EnergyPolicy, TimeObsessedUserGetsMptcpOnComparableLongFlows) {
  EnergyPolicyConfig cfg;
  cfg.joules_per_second = 1000.0;  // time is everything
  const auto pick = energy_aware_policy(est(10, 9), 5'000'000, cfg);
  EXPECT_EQ(pick.kind, TransportKind::kMptcp);
}

TEST(EnergyPolicy, HopelessWifiStillYieldsLte) {
  EnergyPolicyConfig cfg;
  cfg.joules_per_second = 2.0;
  const auto pick = energy_aware_policy(est(0.2, 15), 2'000'000, cfg);
  // WiFi would take ~80 s: even at 1 W extra, LTE's speed wins.
  EXPECT_EQ(pick.kind, TransportKind::kSinglePath);
  EXPECT_EQ(pick.path, PathId::kLte);
}

TEST(EnergyPolicy, CostsAreInternallyConsistent) {
  const auto c = estimate_energy_cost(est(10, 8),
                                      TransportConfig::single_path(PathId::kLte),
                                      1'000'000, {.joules_per_second = 3.0});
  EXPECT_NEAR(c.total_cost, c.radio_joules + 3.0 * c.completion_s, 1e-9);
  EXPECT_GT(c.completion_s, 0.0);
}

// Sweep the time/energy tradeoff: the chosen config's completion time
// must be non-increasing in joules_per_second (more money on the table
// for speed never makes the pick slower).
class TradeoffSweep : public ::testing::TestWithParam<double> {};

TEST_P(TradeoffSweep, MonotoneTradeoff) {
  const auto e = est(9, 8);
  double prev_time = 1e18;
  for (double jps : {0.0, 0.5, 2.0, 10.0, 100.0}) {
    EnergyPolicyConfig cfg;
    cfg.joules_per_second = jps;
    const auto pick = energy_aware_policy(e, static_cast<std::int64_t>(GetParam()), cfg);
    const auto cost = estimate_energy_cost(e, pick, static_cast<std::int64_t>(GetParam()), cfg);
    EXPECT_LE(cost.completion_s, prev_time + 1e-9);
    prev_time = cost.completion_s;
  }
}

INSTANTIATE_TEST_SUITE_P(FlowSizes, TradeoffSweep,
                         ::testing::Values(200'000, 1'000'000, 10'000'000));

}  // namespace
}  // namespace mn
