// RemoteStore: the campaign-side client of the store service.
//
// Implements the same store::Store interface campaign / sweep / chaos
// already consume, forwarding lookup/put over MNSP1 to a StoreServer.
// lookup_many() is overridden to batch whole plans into MULTI_GET
// round trips (kMultiGetBatch keys per request).
//
// Failure discipline — the headline contract of the tier: ANY failure
// (connect refused, timeout, reset, CRC mismatch, version mismatch,
// malformed reply, server-side ERROR) degrades to a cache miss for
// lookups and a dropped write for puts.  Nothing here ever throws for
// peer behaviour, so a dead, flaky, or malicious server can slow a
// campaign but can never fail it or change a byte of its output (runs
// simply re-execute, exactly as with a cold cache).
//
// Retry policy: each operation gets `max_attempts` tries with capped
// exponential backoff; when an operation still fails, a count-based
// circuit breaker degrades the next 2^streak operations instantly
// (capped at 64) so a dead server costs a campaign microseconds
// per run, not three connect timeouts.  Everything is observable via
// store.remote.* counters (hits, misses, puts, reconnects, degraded,
// skipped, protocol_errors).
//
// Thread-safety: one connection, mutex-serialized — safe to share
// across the parallel execute phase (only the serial plan-order phases
// do lookups, but puts come from worker threads).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "store/remote/socket.hpp"
#include "store/remote/wire.hpp"
#include "store/store.hpp"

namespace mn::store::remote {

struct RemoteStoreOptions {
  std::string endpoint;  // parse_endpoint() format, e.g. "/run/mn.sock" or "host:port"
  /// Tries per operation before it degrades.
  int max_attempts = 3;
  /// Backoff between tries: initial, doubling, capped.
  std::chrono::milliseconds initial_backoff{5};
  std::chrono::milliseconds max_backoff{100};
  std::chrono::milliseconds connect_timeout{1000};
  std::chrono::milliseconds io_timeout{5000};
};

class RemoteStore : public Store {
 public:
  explicit RemoteStore(RemoteStoreOptions options);
  ~RemoteStore() override;
  RemoteStore(const RemoteStore&) = delete;
  RemoteStore& operator=(const RemoteStore&) = delete;

  [[nodiscard]] std::optional<std::string> lookup(const ScenarioKey& key) override;
  void put(const ScenarioKey& key, std::string_view blob) override;
  [[nodiscard]] std::vector<std::optional<std::string>> lookup_many(
      const std::vector<ScenarioKey>& keys) override;

  /// Round-trip a PING; false = degraded (and counted as such).
  [[nodiscard]] bool ping();
  /// The server's STATS counters, or nullopt when degraded.
  [[nodiscard]] std::optional<wire::WireStats> server_stats();

  struct Stats {
    std::uint64_t hits = 0;        // lookups answered with a blob
    std::uint64_t misses = 0;      // genuine server-side misses
    std::uint64_t puts = 0;        // acknowledged writes
    std::uint64_t reconnects = 0;  // connections established after the first
    std::uint64_t degraded = 0;    // operations that fell back to miss/drop
    std::uint64_t skipped = 0;     // of those: answered by the circuit breaker
    std::uint64_t protocol_errors = 0;  // WireError / ERROR replies seen
  };
  [[nodiscard]] Stats stats() const;
  /// store.remote.* registry view of the same counters, for exporters.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }

 private:
  /// One request/reply exchange with retries; nullopt = degraded.
  /// Already holds no lock — callers lock mu_.
  [[nodiscard]] std::optional<wire::Message> exchange_locked(wire::Op op,
                                                            std::string_view body,
                                                            wire::Op expect);
  [[nodiscard]] bool ensure_connected_locked();
  void drop_connection_locked();
  [[nodiscard]] bool breaker_skips_locked();
  void note_failure_locked();
  void note_success_locked();

  RemoteStoreOptions options_;
  Endpoint endpoint_;

  mutable std::mutex mu_;
  int fd_ = -1;
  bool ever_connected_ = false;
  wire::FrameParser parser_;
  int failure_streak_ = 0;
  int skip_remaining_ = 0;
  Stats stats_;
};

}  // namespace mn::store::remote
