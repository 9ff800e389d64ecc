// End-to-end reproduction invariants: each test asserts one of the
// paper's headline findings on the full stack (locations -> links ->
// transports -> metrics).  These are the claims EXPERIMENTS.md reports;
// if one breaks, the reproduction regressed even if every unit test
// still passes.
#include <gtest/gtest.h>

#include <algorithm>

#include "app/replay.hpp"
#include "core/experiment.hpp"
#include "core/policy.hpp"
#include "energy/power_model.hpp"
#include "measure/locations20.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace mn {
namespace {

double tput(const MpNetworkSetup& net, const TransportConfig& cfg, std::int64_t bytes) {
  Simulator sim;
  return run_transport_flow(sim, net, cfg, bytes, Direction::kDownload).throughput_mbps;
}

// Finding 2 (Figure 7 / Section 3.3): for short flows, the right
// single-path TCP beats every MPTCP variant.
TEST(PaperClaims, ShortFlowsFavorBestSinglePath) {
  const auto setup = location_setup(table2_locations()[0], /*seed=*/2);
  double best_tcp = 0.0;
  double best_mptcp = 0.0;
  for (const auto& cfg : replay_configs()) {
    const double v = tput(setup, cfg, 10 * kKB);
    (cfg.kind == TransportKind::kSinglePath ? best_tcp : best_mptcp) =
        std::max(cfg.kind == TransportKind::kSinglePath ? best_tcp : best_mptcp, v);
  }
  EXPECT_GE(best_tcp, best_mptcp);
}

// Figure 7b: with comparable links, MPTCP wins at 1 MB.
TEST(PaperClaims, LongFlowsOnComparableLinksFavorMptcp) {
  const auto setup = location_setup(table2_locations()[10], /*seed=*/2);  // 8/7 Mbit/s
  double best_tcp = 0.0;
  double best_mptcp = 0.0;
  for (const auto& cfg : replay_configs()) {
    const double v = tput(setup, cfg, 1000 * kKB);
    (cfg.kind == TransportKind::kSinglePath ? best_tcp : best_mptcp) =
        std::max(cfg.kind == TransportKind::kSinglePath ? best_tcp : best_mptcp, v);
  }
  EXPECT_GT(best_mptcp, best_tcp);
}

// Figure 8: the primary-subflow choice hits short flows harder than
// long flows (median relative difference decreasing in flow size).
TEST(PaperClaims, PrimaryChoiceMattersMostForShortFlows) {
  EmpiricalDistribution small;
  EmpiricalDistribution large;
  for (int li : {0, 3, 9, 16, 18}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const auto& loc = table2_locations()[static_cast<std::size_t>(li)];
      const auto a = location_setup(loc, seed * 100);
      const auto b = location_setup(loc, seed * 100 + 7);
      const std::vector<std::pair<EmpiricalDistribution*, std::int64_t>> cases{
          {&small, 10 * kKB}, {&large, 1000 * kKB}};
      for (const auto& [dist, bytes] : cases) {
        const double lte = tput(a, TransportConfig::mptcp(PathId::kLte, CcAlgo::kDecoupled),
                                bytes);
        const double wifi = tput(b, TransportConfig::mptcp(PathId::kWifi, CcAlgo::kDecoupled),
                                 bytes);
        if (wifi > 0) dist->add(std::abs(lte - wifi) / wifi);
      }
    }
  }
  EXPECT_GT(small.median(), large.median());
}

// Figure 15g/h asymmetry is covered in mptcp tests; here assert the
// energy headline (Section 3.6.2): for a short flow, LTE-as-backup
// saves under half of the active-LTE energy.
TEST(PaperClaims, BackupLteSavesLittleForShortFlows) {
  auto lte_energy = [](MpMode mode) {
    Simulator sim;
    LinkSpec wifi;
    wifi.rate_mbps = 5.0;
    wifi.one_way_delay = msec(12);
    LinkSpec lte = wifi;
    lte.one_way_delay = msec(30);
    MptcpSpec spec{PathId::kWifi, CcAlgo::kDecoupled, mode};
    MptcpTestbed bed{sim, symmetric_setup(wifi, lte), spec};
    bed.start_transfer(2'000'000, Direction::kDownload);  // ~2-3 s flow
    EXPECT_TRUE(bed.run_until_finished(sec(60)));
    EnergyMeter meter{lte_power_params()};
    for (const auto& e : bed.events(PathId::kLte)) meter.add_activity(e.t);
    return meter.radio_energy_joules(TimePoint{sec(60).usec()});
  };
  const double full = lte_energy(MpMode::kFull);
  const double backup = lte_energy(MpMode::kBackup);
  EXPECT_GT(backup, 0.0);
  EXPECT_GT(backup, 0.5 * full) << "backup should NOT save much for short flows";
}

// Section 5: the adaptive policy derived from the findings never loses
// badly to the oracle across a spread of conditions and flow sizes.
TEST(PaperClaims, AdaptivePolicyTracksOracle) {
  for (int li : {0, 5, 10, 16}) {
    const auto& loc = table2_locations()[static_cast<std::size_t>(li)];
    const auto setup = location_setup(loc, /*seed=*/3);
    LinkEstimate est;
    est.down_mbps[PathId::kWifi] = loc.wifi_mbps;
    est.down_mbps[PathId::kLte] = loc.lte_mbps;
    for (std::int64_t bytes : {std::int64_t{10 * kKB}, 1000 * kKB}) {
      const auto pick = adaptive_policy(est, bytes);
      const double picked = tput(setup, pick, bytes);
      double oracle = 0.0;
      for (const auto& cfg : replay_configs()) {
        oracle = std::max(oracle, tput(setup, cfg, bytes));
      }
      EXPECT_GT(picked, 0.45 * oracle)
          << "policy pick " << pick.name() << " too far from oracle at location "
          << loc.id << ", " << bytes << " B";
    }
  }
}

// Figures 18-21 in miniature: replaying a short-flow app, the spread
// between best and worst single path exceeds the spread MPTCP adds on
// top of the best single path.
TEST(PaperClaims, NetworkSelectionDominatesForShortFlowApps) {
  Rng rng{99};
  const AppPattern pattern = cnn_launch(rng);
  const auto setup = location_setup(table2_locations()[1], /*seed=*/5);  // WiFi-dominant
  const auto times = replay_all_configs(pattern, setup);
  const double wifi_tcp = times.at("WiFi-TCP");
  const double lte_tcp = times.at("LTE-TCP");
  double best_mptcp = 1e18;
  for (const auto& [name, t] : times) {
    if (name.rfind("MPTCP", 0) == 0) best_mptcp = std::min(best_mptcp, t);
  }
  const double best_tcp = std::min(wifi_tcp, lte_tcp);
  const double single_path_gain = std::max(wifi_tcp, lte_tcp) - best_tcp;
  const double mptcp_gain = best_tcp - best_mptcp;  // can be negative
  EXPECT_GT(single_path_gain, mptcp_gain);
}

}  // namespace
}  // namespace mn
