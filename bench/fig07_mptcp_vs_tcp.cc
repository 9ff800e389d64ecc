// Regenerates Figure 7: throughput vs flow size for single-path TCP and
// the four MPTCP variants at two representative locations —
//  (a) a large WiFi/LTE disparity, where MPTCP never beats the best TCP;
//  (b) comparable links, where MPTCP wins for large flows.
#include <iostream>

#include "common.hpp"
#include "util/units.hpp"
#include "core/experiment.hpp"
#include "measure/locations20.hpp"

namespace {

using namespace mn;

void run_location(const Location20& loc, const char* label, const char* expectation) {
  std::cout << "\n--- " << label << ": location " << loc.id << " (" << loc.city << ", "
            << loc.description << "; WiFi " << loc.wifi_mbps << " / LTE " << loc.lte_mbps
            << " Mbit/s)\n";
  std::cout << "    paper expectation: " << expectation << "\n";
  const auto setup = location_setup(loc, /*seed=*/2);
  const std::vector<std::int64_t> sizes{1 * kKB, 10 * kKB, 100 * kKB, 1000 * kKB};

  const std::vector<TransportConfig> configs{
      TransportConfig::single_path(PathId::kLte),
      TransportConfig::single_path(PathId::kWifi),
      TransportConfig::mptcp(PathId::kLte, CcAlgo::kDecoupled),
      TransportConfig::mptcp(PathId::kWifi, CcAlgo::kDecoupled),
      TransportConfig::mptcp(PathId::kLte, CcAlgo::kCoupled),
      TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled),
  };

  Table t{{"Config", "1 KB", "10 KB", "100 KB", "1 MB"}};
  double best_tcp_1mb = 0.0;
  double best_mptcp_1mb = 0.0;
  for (const auto& cfg : configs) {
    const auto points = sweep_flow_sizes(setup, cfg, sizes);
    std::vector<std::string> row{cfg.name()};
    for (const auto& p : points) row.push_back(Table::num(p.throughput_mbps, 2));
    t.add_row(std::move(row));
    const double v = points.back().throughput_mbps;
    if (cfg.kind == TransportKind::kSinglePath) {
      best_tcp_1mb = std::max(best_tcp_1mb, v);
    } else {
      best_mptcp_1mb = std::max(best_mptcp_1mb, v);
    }
  }
  t.print(std::cout);
  std::cout << "    at 1 MB: best single-path TCP " << Table::num(best_tcp_1mb, 2)
            << " vs best MPTCP " << Table::num(best_mptcp_1mb, 2) << " Mbit/s -> "
            << (best_mptcp_1mb > best_tcp_1mb ? "MPTCP wins" : "TCP wins") << "\n";
}

}  // namespace

int main() {
  using namespace mn;
  bench::print_header("Figure 7", "MPTCP vs single-path TCP throughput by flow size");
  bench::print_paper(
      "(a) with a large link disparity MPTCP is always below the best "
      "single-path TCP; (b) with comparable links MPTCP overtakes TCP at "
      "large flow sizes; in both, short flows favour the right single path.");

  const auto& locs = table2_locations();
  run_location(locs[0], "(a) disparate links", "MPTCP worse than best TCP at every flow size");
  run_location(locs[10], "(b) comparable links", "MPTCP better than best TCP at 1 MB");
  return 0;
}
