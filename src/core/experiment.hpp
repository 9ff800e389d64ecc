// Flow-level experiment drivers shared by tests and benches: run one
// transfer under any TransportConfig over an MpNetworkSetup, and sweep
// flow sizes (the x-axis of Figures 7, 8, 11-14).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "faults/fault_plan.hpp"
#include "mptcp/testbed.hpp"
#include "store/key.hpp"
#include "store/store.hpp"
#include "tcp/flow.hpp"

namespace mn {

/// Uniform result for single-path and MPTCP flows; the subflow
/// timelines are MPTCP only (empty for single path).
struct TransportFlowResult : FlowOutcome, SubflowTimelines {};

/// Knobs for run_transport_flow beyond the flow itself.
struct TransportRunOptions : FlowLimits {
  /// Optional fault schedule, armed against the flow's path(s) at start
  /// (not owned; must outlive the call).
  const FaultPlan* faults = nullptr;
};

/// Run `bytes` under `config` over `net`.  A fresh Simulator should be
/// used per call for reproducibility (pass one in; it is advanced).
[[nodiscard]] TransportFlowResult run_transport_flow(Simulator& sim,
                                                     const MpNetworkSetup& net,
                                                     const TransportConfig& config,
                                                     std::int64_t bytes, Direction dir,
                                                     const TransportRunOptions& options);

[[nodiscard]] TransportFlowResult run_transport_flow(Simulator& sim,
                                                     const MpNetworkSetup& net,
                                                     const TransportConfig& config,
                                                     std::int64_t bytes, Direction dir,
                                                     Duration timeout = sec(120));

/// One point of a flow-size sweep.
struct SweepPoint {
  std::int64_t flow_bytes = 0;
  double throughput_mbps = 0.0;
  Duration completion_time{0};
};

/// Knobs for sweep_flow_sizes.
struct SweepOptions {
  Direction dir = Direction::kDownload;
  /// Worker threads for the per-size runs: 0/1 = serial, negative =
  /// follow MN_THREADS.  Each point builds a private Simulator from the
  /// shared-immutable setup, so results are bit-identical at any value.
  int parallelism = -1;
  /// Optional result store, consulted through store::memoized_map:
  /// hits replay, misses simulate and are put.  Figure benches sharing
  /// one store then pay for each (net, config, size, dir) point once
  /// across the suite.  Not owned.
  store::Store* store = nullptr;
};

/// Content key of one sweep point: a canonical hash of the full network
/// setup (including trace contents), the transport configuration, the
/// flow size, and the direction.
[[nodiscard]] store::ScenarioKey sweep_scenario_key(const MpNetworkSetup& net,
                                                    const TransportConfig& config,
                                                    std::int64_t bytes, Direction dir);

/// Store blob codec for SweepPoint; parse throws std::runtime_error on
/// corruption (treated upstream as a cache miss).
[[nodiscard]] std::string serialize_sweep_point(const SweepPoint& point);
[[nodiscard]] SweepPoint parse_sweep_point(std::string_view blob);

/// Throughput as a function of flow size for one config (Figure 7 axes).
[[nodiscard]] std::vector<SweepPoint> sweep_flow_sizes(const MpNetworkSetup& net,
                                                       const TransportConfig& config,
                                                       const std::vector<std::int64_t>& sizes,
                                                       const SweepOptions& options = {});

}  // namespace mn
