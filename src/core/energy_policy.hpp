// Energy-aware network selection — the paper's closing future-work
// question: "with energy consumption being a major concern for mobile
// devices, how can we make the decisions when trying to minimize energy
// consumption?"
//
// The model combines the Figure-16 radio parameters with the flow-level
// performance estimates: a configuration's cost is a weighted sum of
// predicted completion time and predicted radio energy, where the energy
// prediction includes the tail cost of *touching* a radio at all (the
// Section-3.6.2 insight that even SYN/FIN-only use of LTE costs ~15 J).
#pragma once

#include <string>

#include "core/config.hpp"
#include "core/policy.hpp"
#include "energy/power_model.hpp"

namespace mn {

struct EnergyPolicyConfig {
  /// Joules the user will pay per saved second of transfer time.
  /// 0 = energy only; large = time only (degenerates to adaptive_policy).
  double joules_per_second = 2.0;
};

/// Predicted cost of running `flow_bytes` under `config` given measured
/// link estimates.  Exposed for tests and the ablation bench.
struct EnergyCostEstimate {
  double completion_s = 0.0;
  double radio_joules = 0.0;
  double total_cost = 0.0;  // radio_joules + joules_per_second * completion_s
};

[[nodiscard]] EnergyCostEstimate estimate_energy_cost(const LinkEstimate& est,
                                                      const TransportConfig& config,
                                                      std::int64_t flow_bytes,
                                                      const EnergyPolicyConfig& policy = {});

/// Choose the configuration minimizing the combined time+energy cost
/// over the six standard configurations (plus single-radio preference on
/// ties).  This is the energy-aware counterpart of adaptive_policy().
[[nodiscard]] TransportConfig energy_aware_policy(const LinkEstimate& est,
                                                  std::int64_t flow_bytes,
                                                  const EnergyPolicyConfig& policy = {});

}  // namespace mn
