#include "core/policy.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace mn {
namespace {

LinkEstimate est(double wifi, double lte) {
  LinkEstimate e;
  e.down_mbps[PathId::kWifi] = wifi;
  e.down_mbps[PathId::kLte] = lte;
  return e;
}

TEST(Policy, AlwaysWifiIsTheAndroidDefault) {
  const auto c = always_wifi_policy();
  EXPECT_EQ(c.kind, TransportKind::kSinglePath);
  EXPECT_EQ(c.path, PathId::kWifi);
}

TEST(Policy, BestSinglePathPicksFasterNetwork) {
  EXPECT_EQ(best_single_path_policy(est(10, 5)).path, PathId::kWifi);
  EXPECT_EQ(best_single_path_policy(est(3, 12)).path, PathId::kLte);
  EXPECT_EQ(best_single_path_policy(est(7, 7)).path, PathId::kWifi);  // tie -> WiFi
}

TEST(Policy, AdaptiveUsesSinglePathForShortFlows) {
  const auto c = adaptive_policy(est(5, 10), 10'000);
  EXPECT_EQ(c.kind, TransportKind::kSinglePath);
  EXPECT_EQ(c.path, PathId::kLte);
}

TEST(Policy, AdaptiveUsesMptcpForLongFlowsOnComparableLinks) {
  const auto c = adaptive_policy(est(8, 10), 1'000'000);
  EXPECT_EQ(c.kind, TransportKind::kMptcp);
  EXPECT_EQ(c.mp.primary, PathId::kLte);
  EXPECT_EQ(c.mp.cc, CcAlgo::kCoupled);
}

TEST(Policy, AdaptiveAvoidsMptcpOnDisparateLinks) {
  // Figure 7a regime: one link 10x the other.
  const auto c = adaptive_policy(est(20, 1.5), 1'000'000);
  EXPECT_EQ(c.kind, TransportKind::kSinglePath);
  EXPECT_EQ(c.path, PathId::kWifi);
}

TEST(Policy, AdaptiveThresholdIsConfigurable) {
  EXPECT_EQ(adaptive_policy(est(8, 10), 50'000, 20'000).kind, TransportKind::kMptcp);
  EXPECT_EQ(adaptive_policy(est(8, 10), 50'000, 200'000).kind,
            TransportKind::kSinglePath);
}

ConfigTimes times_fixture() {
  return {{"WiFi-TCP", 10.0},          {"LTE-TCP", 6.0},
          {"MPTCP-Coupled-WiFi", 7.0}, {"MPTCP-Coupled-LTE", 5.0},
          {"MPTCP-Decoupled-WiFi", 8.0}, {"MPTCP-Decoupled-LTE", 9.0}};
}

TEST(Oracles, ReportTakesMinima) {
  const auto r = make_oracle_report(times_fixture());
  EXPECT_DOUBLE_EQ(r.wifi_tcp, 10.0);
  EXPECT_DOUBLE_EQ(r.single_path_oracle, 6.0);
  EXPECT_DOUBLE_EQ(r.coupled_mptcp_oracle, 5.0);
  EXPECT_DOUBLE_EQ(r.decoupled_mptcp_oracle, 8.0);
  EXPECT_DOUBLE_EQ(r.wifi_primary_oracle, 7.0);
  EXPECT_DOUBLE_EQ(r.lte_primary_oracle, 5.0);
}

TEST(Oracles, MissingConfigThrows) {
  ConfigTimes t = times_fixture();
  t.erase("LTE-TCP");
  EXPECT_THROW((void)make_oracle_report(t), std::out_of_range);
}

TEST(Oracles, NormalizationAgainstWifiBaseline) {
  const auto r = make_oracle_report(times_fixture());
  const auto n = normalize_oracles({r});
  EXPECT_DOUBLE_EQ(n.wifi_tcp, 1.0);
  EXPECT_DOUBLE_EQ(n.single_path_oracle, 0.6);
  EXPECT_DOUBLE_EQ(n.coupled_mptcp_oracle, 0.5);
}

TEST(Oracles, NormalizationAveragesAcrossConditions) {
  OracleReport a;
  a.wifi_tcp = 10.0;
  a.single_path_oracle = 5.0;
  OracleReport b;
  b.wifi_tcp = 10.0;
  b.single_path_oracle = 10.0;
  const auto n = normalize_oracles({a, b});
  EXPECT_DOUBLE_EQ(n.single_path_oracle, 0.75);
}

TEST(Oracles, EmptyReportsGiveIdentity) {
  const auto n = normalize_oracles({});
  EXPECT_DOUBLE_EQ(n.wifi_tcp, 1.0);
  EXPECT_DOUBLE_EQ(n.single_path_oracle, 1.0);
}

TEST(Stats, NormalQuantileRoundTrip) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-4);
  EXPECT_THROW((void)normal_quantile(0.0), std::runtime_error);
  EXPECT_THROW((void)normal_quantile(1.0), std::runtime_error);
}

}  // namespace
}  // namespace mn
