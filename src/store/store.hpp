// The store interface campaign / sweep / chaos consume (through
// store::memoized_map, memoize.hpp).
//
// A Store memoizes deterministic work units: lookup() before executing,
// put() after.  Two implementations exist — the process-local, durable
// RunStore (run_store.hpp) and the fleet-shared RemoteStore client
// (remote/client.hpp) that forwards both calls over the MNSP1 wire
// protocol to a store server.
//
// The contract every implementation must honour is the degradation
// discipline from PR 5: a store may *lose* work (miss where a record
// exists, drop a put) but may never invent, corrupt, or fail a run —
// callers treat every anomaly as a cache miss and re-execute, so output
// stays byte-identical whatever the cache tier is doing.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/key.hpp"

namespace mn::store {

class Store {
 public:
  virtual ~Store() = default;

  /// Cached blob for `key`, or nullopt.  Must be safe to call from
  /// multiple threads (the campaign execute phase is parallel).
  [[nodiscard]] virtual std::optional<std::string> lookup(const ScenarioKey& key) = 0;

  /// Insert/overwrite `key`.  Implementations may drop the write on
  /// error (degradation), but must not throw for transport failures.
  virtual void put(const ScenarioKey& key, std::string_view blob) = 0;

  /// Batched lookup, one result per key in order.  The default loops
  /// over lookup(); RemoteStore overrides it with a single MULTI_GET
  /// round trip so a 10^3-run campaign does not pay 10^3 RTTs.
  [[nodiscard]] virtual std::vector<std::optional<std::string>> lookup_many(
      const std::vector<ScenarioKey>& keys) {
    std::vector<std::optional<std::string>> out;
    out.reserve(keys.size());
    for (const ScenarioKey& k : keys) out.push_back(lookup(k));
    return out;
  }
};

}  // namespace mn::store
