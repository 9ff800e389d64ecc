// Chaos soak: long-running robustness gate for the multi-homed stack.
//
// Runs MN_RUN_SCALE * 200 seeded random fault plans (silent blackholes,
// soft downs, tether unplugs, Gilbert–Elliott bursts, rate crashes,
// delay spikes) against randomized WiFi+LTE setups and checks the four
// safety invariants after every run: byte conservation, no event-queue
// leak, watchdog-bounded stalls, and consistent stage counters.  Any
// violation prints the seed and serialized FaultPlan for replay.
#include <cstdlib>
#include <iostream>

#include "common.hpp"
#include "faults/chaos.hpp"

int main() {
  using namespace mn;
  bench::print_header("Chaos soak", "seeded random fault plans vs. safety invariants");
  bench::print_paper(
      "§3.5/§3.6: real deployments see silent tether failures, soft "
      "'multipath off' events and bursty loss; the stack must degrade "
      "without corrupting state.");

  ChaosSoakOptions options;
  options.runs = static_cast<int>(200 * bench::env_scale());
  if (options.runs < 1) options.runs = 1;

  const ChaosSoakSummary summary = run_chaos_soak(options);

  bench::print_measured("runs: " + std::to_string(summary.runs) +
                        ", completed: " + std::to_string(summary.completed) +
                        ", aborted (watchdog/timeout): " + std::to_string(summary.aborted));
  bench::print_measured("longest progress stall: " +
                        std::to_string(summary.max_stall.seconds()) + " s (bound " +
                        std::to_string(options.stall_limit.seconds()) + " s)");
  bench::print_measured("invariant violations: " +
                        std::to_string(summary.violating.size()));

  for (const ChaosRunReport& r : summary.violating) {
    std::cout << "\nVIOLATION seed=" << r.seed << "\n  plan:\n" << r.plan_text;
    for (const std::string& v : r.violations) std::cout << "  - " << v << "\n";
  }
  if (!summary.ok()) {
    std::cout << "\nchaos soak FAILED\n";
    return 1;
  }
  std::cout << "\nchaos soak passed: all invariants held over " << summary.runs
            << " runs\n";
  return 0;
}
