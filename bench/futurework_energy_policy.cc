// The paper's future-work question made concrete: "how can we make the
// decisions when trying to minimize energy consumption?"  Evaluates the
// energy-aware policy (core/energy_policy.hpp) against the pure-time
// adaptive policy and the static baselines across the 20 locations,
// scoring both measured completion time and measured radio energy.
#include <iostream>
#include <map>

#include "common.hpp"
#include "core/energy_policy.hpp"
#include "core/experiment.hpp"
#include "energy/power_model.hpp"
#include "measure/locations20.hpp"
#include "util/units.hpp"

namespace {

using namespace mn;

struct Outcome {
  double seconds = 0.0;
  double joules = 0.0;
  bool completed = false;
};

/// Run the flow and *measure* time and radio energy on the testbed.
Outcome run_measured(const MpNetworkSetup& net, const TransportConfig& cfg,
                     std::int64_t bytes) {
  Simulator sim;
  Outcome out;
  if (cfg.kind == TransportKind::kSinglePath) {
    // Run over one path and meter only that radio, from the *actual*
    // packet events at the client (the tap) — synthetic uniform-20 ms
    // activity used to stand in here, which flattened every burst and
    // biased the policy comparison against bursty real traffic.
    DuplexPath path{sim, net.paths[cfg.path].up, net.paths[cfg.path].down};
    EnergyMeter meter{power_params(cfg.path)};
    BulkFlowOptions flow_options;
    flow_options.timeout = sec(120);
    flow_options.stall_limit = sec(120);
    flow_options.client_tap = [&meter](TimePoint t, PacketDir, const Packet&) {
      meter.add_activity(t);
    };
    const auto r = run_bulk_flow(sim, path, bytes, Direction::kDownload,
                                 reno_factory(), flow_options);
    out.completed = r.completed;
    out.seconds = r.completed ? r.completion_time.seconds()
                              : flow_options.timeout.seconds();
    out.joules = meter.radio_energy_joules(TimePoint{secs_f(out.seconds + 20.0).usec()});
    return out;
  }
  // MPTCP arm: completion and per-radio joules are first-class flow
  // results now — a timed-out run is flagged instead of silently
  // reporting sim.now() (the full timeout) as its completion time.
  FlowRunOptions flow_options;
  flow_options.timeout = sec(120);
  flow_options.stall_limit = sec(120);
  const MptcpFlowResult r =
      run_mptcp_flow(sim, net, cfg.mp, bytes, Direction::kDownload, flow_options);
  out.completed = r.completed;
  out.seconds = r.completed ? r.completion_time.seconds() : flow_options.timeout.seconds();
  out.joules = r.energy_j[PathId::kWifi] + r.energy_j[PathId::kLte];
  return out;
}

}  // namespace

int main() {
  using namespace mn;
  bench::print_header("Future work", "Energy-aware network selection");
  bench::print_paper(
      "Section 7 poses energy-aware selection as an open question; this "
      "bench evaluates the policy built from the paper's own energy "
      "findings (Fig 16 + Sec 3.6.2) against time-only selection.");

  const std::int64_t bytes = 2 * kMB;
  std::map<std::string, Outcome> totals;
  int conditions = 0;
  int timed_out = 0;
  const double scale = bench::env_scale();
  const auto n_conditions = std::max<std::size_t>(
      4, std::min<std::size_t>(20, static_cast<std::size_t>(20 * scale)));

  for (std::size_t i = 0; i < n_conditions; ++i) {
    const auto& loc = table2_locations()[i];
    const auto net = location_setup(loc, /*seed=*/9);
    LinkEstimate est;
    est.down_mbps[PathId::kWifi] = loc.wifi_mbps;
    est.down_mbps[PathId::kLte] = loc.lte_mbps;
    est.rtt[PathId::kWifi] = 2 * loc.wifi_one_way;
    est.rtt[PathId::kLte] = 2 * loc.lte_one_way;

    const std::map<std::string, TransportConfig> policies{
        {"Always-WiFi (Android)", always_wifi_policy()},
        {"Best single path", best_single_path_policy(est)},
        {"Adaptive (time only)", adaptive_policy(est, bytes)},
        {"Energy-aware (2 J/s)", energy_aware_policy(est, bytes, {.joules_per_second = 2.0})},
        {"Energy-aware (0 J/s)", energy_aware_policy(est, bytes, {.joules_per_second = 0.0})},
    };
    for (const auto& [name, cfg] : policies) {
      const Outcome o = run_measured(net, cfg, bytes);
      if (!o.completed) {
        ++timed_out;
        std::cerr << "WARNING: " << name << " at " << loc.city
                  << " did not complete (timeout charged)\n";
      }
      totals[name].seconds += o.seconds;
      totals[name].joules += o.joules;
    }
    ++conditions;
  }
  if (timed_out > 0) {
    std::cerr << "WARNING: " << timed_out << " flow(s) timed out; their rows "
              << "charge the full timeout, not a completion time\n";
  }

  Table t{{"Policy", "Mean time (s)", "Mean radio energy (J)"}};
  for (const auto& [name, o] : totals) {
    t.add_row({name, Table::num(o.seconds / conditions, 2),
               Table::num(o.joules / conditions, 1)});
  }
  std::cout << "\n2 MB downloads across " << conditions << " conditions:\n";
  t.print(std::cout);
  bench::print_measured(
      "the energy-aware policy trades a modest slowdown for a large "
      "radio-energy saving versus time-only selection; with the weight "
      "at 0 it collapses to the cheapest radio.");
  return 0;
}
