// The memoized executor: how a batch of pure, keyed work units runs
// against an optional store.
//
// run_campaign, sweep_flow_sizes and run_chaos_soak all execute n
// independent units, each a pure function of its index.  memoized_map
// is the one place that decides how such a batch meets a Store:
//
//   1. key(i) for every unit, then ONE lookup_many() call — a remote
//      store answers the whole batch in a single MULTI_GET round trip;
//   2. decode(blob) for each hit; a blob that throws is a miss (the
//      degradation discipline of store.hpp: a store may lose work but
//      never corrupt a run);
//   3. parallel_map over the misses only;
//   4. put(key, encode(result)) in ascending index order, after the
//      parallel phase, so a fresh result supersedes any junk it missed;
//   5. results returned in index order.
//
// With a null store it is exactly parallel_map(n, parallelism, run):
// no key is computed, no blob is encoded or decoded.  Because every
// unit owns its inputs and decode inverts encode, the output is
// byte-identical for any mix of hits and misses and any parallelism.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/key.hpp"
#include "store/store.hpp"
#include "util/parallel.hpp"

namespace mn::store {

/// key: size_t -> ScenarioKey; run: size_t -> R; encode: const R& ->
/// string; decode: string_view -> R (may throw; a throw is a miss).
/// `store` may be null and is not owned.
template <typename KeyFn, typename RunFn, typename EncodeFn, typename DecodeFn>
[[nodiscard]] auto memoized_map(std::size_t n, Store* store, int parallelism, KeyFn&& key,
                                RunFn&& run, EncodeFn&& encode, DecodeFn&& decode) {
  if (store == nullptr) return parallel_map(n, parallelism, run);

  using R = std::invoke_result_t<RunFn&, std::size_t>;
  std::vector<ScenarioKey> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = key(i);
  const std::vector<std::optional<std::string>> blobs = store->lookup_many(keys);

  std::vector<R> out(n);
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < n; ++i) {
    if (blobs[i]) {
      try {
        out[i] = decode(*blobs[i]);
        continue;
      } catch (const std::exception&) {
        // Undecodable blob = miss; the fresh result supersedes it below.
      }
    }
    missing.push_back(i);
  }

  std::vector<R> fresh = parallel_map(missing.size(), parallelism,
                                      [&](std::size_t j) { return run(missing[j]); });
  for (std::size_t j = 0; j < missing.size(); ++j) {
    store->put(keys[missing[j]], encode(fresh[j]));
    out[missing[j]] = std::move(fresh[j]);
  }
  return out;
}

}  // namespace mn::store
