// MpShell — the paper's multi-link Mahimahi extension (Section 4.1):
// a network container that gives a simulated mobile client two access
// networks (WiFi + LTE) to a single-homed server, shared by any number
// of concurrent connections (each app flow is one connection).
//
// Also defines the Transport abstraction (single-path TCP or MPTCP,
// chosen per connection by TransportConfig) and HttpConnectionSim, the
// client-server HTTP state machine used by app replay.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "emu/http.hpp"
#include "mptcp/mptcp_agent.hpp"
#include "mptcp/testbed.hpp"
#include "tcp/mux.hpp"

namespace mn {

class MpShell {
 public:
  MpShell(Simulator& sim, const MpNetworkSetup& setup);
  MpShell(const MpShell&) = delete;
  MpShell& operator=(const MpShell&) = delete;

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] MpNetwork& network() { return net_; }
  [[nodiscard]] PacketMux& client_mux() { return client_mux_; }
  [[nodiscard]] PacketMux& server_mux() { return server_mux_; }

 private:
  Simulator& sim_;
  PacketMux client_mux_;
  PacketMux server_mux_;
  MpNetwork net_;  // after the muxes its receivers feed: torn down first
};

/// One side of a logical connection; created in pairs by make_transport_pair.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  virtual void connect() = 0;  // client side
  virtual void listen() = 0;   // server side
  /// Enqueue application bytes toward the peer.
  virtual void send(std::int64_t bytes) = 0;
  virtual void close_when_done() = 0;
  [[nodiscard]] virtual bool finished() const = 0;

  std::function<void()> on_established;
  /// In-order bytes available to the application at this side.
  std::function<void(std::int64_t total)> on_delivered;
};

struct TransportPair {
  std::unique_ptr<Transport> client;
  std::unique_ptr<Transport> server;
};

/// Build a connected client/server transport pair over `shell` according
/// to `config`.  `connection_id` must be unique within the shell.
[[nodiscard]] TransportPair make_transport_pair(MpShell& shell,
                                                const TransportConfig& config,
                                                std::uint64_t connection_id);

/// One request/response on a connection.
struct HttpExchange {
  HttpRequest request;
  HttpResponse response;
  Duration server_think{0};  // server processing before the response
};

/// Convenience constructor for synthetic exchanges of given body sizes.
[[nodiscard]] HttpExchange synthetic_exchange(std::int64_t request_bytes,
                                              std::int64_t response_bytes,
                                              Duration server_think = Duration{0});

/// Drives a sequence of HTTP exchanges over one transport connection:
/// requests are issued sequentially; the server answers each complete
/// request after its think time.  Completion = last response fully
/// delivered at the client.
class HttpConnectionSim {
 public:
  HttpConnectionSim(MpShell& shell, const TransportConfig& config,
                    std::uint64_t connection_id, std::vector<HttpExchange> exchanges);

  /// Schedule the connection to open at absolute time `at`.
  void start(TimePoint at);

  std::function<void()> on_complete;

  [[nodiscard]] bool complete() const { return complete_; }
  [[nodiscard]] TimePoint started_at() const { return started_at_; }
  [[nodiscard]] TimePoint completed_at() const { return completed_at_; }

 private:
  void begin();
  void on_server_delivered(std::int64_t total);
  void on_client_delivered(std::int64_t total);

  MpShell& shell_;
  TransportPair pair_;
  std::vector<HttpExchange> exchanges_;
  std::vector<std::int64_t> request_thresholds_;   // cumulative request bytes
  std::vector<std::int64_t> response_thresholds_;  // cumulative response bytes
  std::size_t requests_sent_ = 0;
  std::size_t responses_sent_ = 0;
  std::size_t responses_done_ = 0;
  bool complete_ = false;
  TimePoint started_at_{};
  TimePoint completed_at_{};
};

}  // namespace mn
