// StoreServer: the fleet-shared side of the result store.
//
// One server process owns a store directory and exposes it over MNSP1
// (wire.hpp) on a Unix-domain or TCP socket — `mn_store serve <dir>
// --socket <spec>` is a thin main() around this class.
//
// Ownership and locking (lockfile.hpp):
//   - `serve.lock` is held EXCLUSIVE: exactly one server per directory,
//     a second `mn_store serve` fails fast instead of double-writing.
//   - `store.lock` is held SHARED by the server's RunStore, the
//     appender role: local RunStores may still read/append their own
//     segments concurrently, and a compactor is excluded for as long as
//     the server lives.
//
// Storage: the server is a RunStore (run_store.hpp) behind its poll
// loop — one engine, one supersede rule.  GETs are served from
// RunStore::find(), views into the read-only mmap'd segments
// (segment_view.hpp) or into this session's puts, so blobs go from page
// cache to socket without a heap copy.  PUTs go through RunStore::put
// (an O_EXCL-claimed segment, flush per record); STATS reads the
// entry/segment/byte counts from RunStore::stats().
//
// Concurrency: a single poll(2) loop owns every connection — requests
// are serialized by arrival, so the store needs no internal locking and
// "single-writer" is structural, not a convention.  stop() (any thread)
// wakes the loop via a self-pipe.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "store/remote/socket.hpp"
#include "store/remote/wire.hpp"

namespace mn::store::remote {

struct StoreServerOptions {
  std::string dir;          // store directory (created if absent)
  std::string socket_spec;  // parse_endpoint() format
};

class StoreServer {
 public:
  /// Opens the directory (locks, mmaps, listens).  Throws on an
  /// unservable directory (already served, unbindable socket, ...).
  explicit StoreServer(StoreServerOptions options);
  ~StoreServer();
  StoreServer(const StoreServer&) = delete;
  StoreServer& operator=(const StoreServer&) = delete;

  /// Serve until stop().  Call from exactly one thread.
  void run();

  /// Wake run() and make it return after the current iteration.
  /// Thread-safe; callable any number of times.
  void stop();

  /// One poll iteration (accept/read/serve/write), waiting at most
  /// `timeout_ms`.  run() is a loop over this; tests can step manually.
  void poll_once(int timeout_ms);

  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }
  /// The actual TCP port after binding (meaningful when the spec said
  /// port 0); the Unix path otherwise unchanged.
  [[nodiscard]] std::uint16_t tcp_port() const;
  [[nodiscard]] const std::string& dir() const { return options_.dir; }

  /// Live counters (what STATS serves), safe from any thread.
  [[nodiscard]] wire::WireStats stats() const;
  /// The same counters as store.server.* metrics for exporters.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

 private:
  struct Impl;

  StoreServerOptions options_;
  Endpoint endpoint_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mn::store::remote
