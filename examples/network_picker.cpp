// The "WiFi, LTE, or Both?" question as an API: measure both networks
// the way the Cell vs WiFi app does, then let the paper-derived adaptive
// policy pick a transport per flow size — and verify the pick against a
// brute-force oracle.
#include <iostream>

#include "core/experiment.hpp"
#include "core/policy.hpp"
#include "tcp/flow.hpp"

namespace {

using namespace mn;

LinkEstimate measure_links(const MpNetworkSetup& net) {
  // What the app does: a quick probe transfer on each network + pings.
  LinkEstimate est;
  {
    Simulator sim;
    DuplexPath wifi{sim, net.paths[PathId::kWifi].up, net.paths[PathId::kWifi].down};
    est.down_mbps[PathId::kWifi] =
        run_bulk_flow(sim, wifi, 250'000, Direction::kDownload).throughput_mbps;
  }
  {
    Simulator sim;
    DuplexPath wifi{sim, net.paths[PathId::kWifi].up, net.paths[PathId::kWifi].down};
    est.rtt[PathId::kWifi] = measure_ping_rtt(sim, wifi);
  }
  {
    Simulator sim;
    DuplexPath lte{sim, net.paths[PathId::kLte].up, net.paths[PathId::kLte].down};
    est.down_mbps[PathId::kLte] =
        run_bulk_flow(sim, lte, 250'000, Direction::kDownload).throughput_mbps;
  }
  {
    Simulator sim;
    DuplexPath lte{sim, net.paths[PathId::kLte].up, net.paths[PathId::kLte].down};
    est.rtt[PathId::kLte] = measure_ping_rtt(sim, lte);
  }
  return est;
}

void demo(const char* name, double wifi_mbps, double lte_mbps) {
  LinkSpec wifi;
  wifi.rate_mbps = wifi_mbps;
  wifi.one_way_delay = msec(10);
  wifi.queue_packets = 64;
  LinkSpec lte;
  lte.rate_mbps = lte_mbps;
  lte.one_way_delay = msec(30);
  lte.queue_packets = 150;
  const auto net = symmetric_setup(wifi, lte);

  const LinkEstimate est = measure_links(net);
  std::cout << "\n== " << name << " ==\n"
            << "  measured: WiFi " << est.down_mbps[PathId::kWifi] << " Mbit/s / "
            << est.rtt[PathId::kWifi].millis() << " ms, LTE " << est.down_mbps[PathId::kLte]
            << " Mbit/s / " << est.rtt[PathId::kLte].millis() << " ms\n";

  for (std::int64_t bytes : {std::int64_t{10'000}, std::int64_t{2'000'000}}) {
    const TransportConfig pick = adaptive_policy(est, bytes);
    Simulator sim;
    const auto picked = run_transport_flow(sim, net, pick, bytes, Direction::kDownload);

    // Brute-force oracle over all six configs.
    double best = 1e18;
    std::string best_name;
    for (const auto& cfg : replay_configs()) {
      Simulator s;
      const auto r = run_transport_flow(s, net, cfg, bytes, Direction::kDownload);
      if (r.completed && r.completion_time.seconds() < best) {
        best = r.completion_time.seconds();
        best_name = cfg.name();
      }
    }
    std::cout << "  " << bytes / 1000 << " KB flow -> policy picks " << pick.name()
              << " (" << picked.completion_time.seconds() << " s); oracle best: "
              << best_name << " (" << best << " s)\n";
  }
}

}  // namespace

int main() {
  demo("comparable links", 10, 8);
  demo("WiFi much faster", 20, 1.5);
  demo("LTE much faster", 2, 15);
  return 0;
}
