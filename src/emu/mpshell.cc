#include "emu/mpshell.hpp"

namespace mn {

MpShell::MpShell(Simulator& sim, const MpNetworkSetup& setup) : sim_(sim), net_(sim, setup) {
  net_.set_receivers([this](Packet p) { client_mux_.dispatch(p); },
                     [this](Packet p) { server_mux_.dispatch(p); });
}

namespace {

/// One side's wiring into the shell: the client sends through its
/// interface, the server straight down the path; each side receives
/// from its own mux.
PacketHandler transmit_on(MpNetwork& net, PathId path, bool is_client) {
  if (is_client) return [iface = &net.iface(path)](Packet p) { iface->send(std::move(p)); };
  return [dp = &net.path(path)](Packet p) { dp->send_down(std::move(p)); };
}

PacketMux& mux_of(MpShell& shell, bool is_client) {
  return is_client ? shell.client_mux() : shell.server_mux();
}

class TcpTransport final : public Transport {
 public:
  TcpTransport(MpShell& shell, PathId path, std::uint64_t conn, bool is_client)
      : mux_(mux_of(shell, is_client)), conn_(conn),
        ep_(shell.sim(), make_config(conn), std::make_unique<RenoCc>()) {
    ep_.set_transmit(transmit_on(shell.network(), path, is_client));
    mux_.attach(conn_, 0, [this](Packet p) { ep_.handle_packet(p); });
    ep_.on_established = [this] {
      if (on_established) on_established();
    };
    ep_.on_delivered = [this](std::int64_t total) {
      if (on_delivered) on_delivered(total);
    };
  }

  ~TcpTransport() override { mux_.detach(conn_, 0); }

  void connect() override { ep_.connect(); }
  void listen() override { ep_.listen(); }
  void send(std::int64_t bytes) override { ep_.send_bytes(bytes); }
  void close_when_done() override { ep_.close_when_done(); }
  [[nodiscard]] bool finished() const override { return ep_.state() == TcpState::kDone; }

 private:
  static TcpConfig make_config(std::uint64_t conn) {
    TcpConfig cfg;
    cfg.connection_id = conn;
    return cfg;
  }

  PacketMux& mux_;
  std::uint64_t conn_;
  TcpEndpoint ep_;
};

class MptcpTransport final : public Transport {
 public:
  MptcpTransport(MpShell& shell, const MptcpSpec& spec, std::uint64_t conn,
                 bool is_client)
      : mux_(mux_of(shell, is_client)), conn_(conn),
        agent_(shell.sim(), conn, spec, is_client) {
    for (int id = 0; id < 2; ++id) {
      agent_.set_transmit(id, transmit_on(shell.network(), agent_.subflow_path(id), is_client));
      mux_.attach(conn_, id, [this](Packet p) { agent_.handle_packet(p); });
    }
    agent_.on_established = [this] {
      if (on_established) on_established();
    };
    agent_.on_data_delivered = [this](std::int64_t) {
      if (on_delivered) on_delivered(agent_.data_delivered_in_order());
    };
  }

  ~MptcpTransport() override {
    for (int id = 0; id < 2; ++id) mux_.detach(conn_, id);
  }

  void connect() override { agent_.connect(); }
  void listen() override { agent_.listen(); }
  void send(std::int64_t bytes) override { agent_.send_data(bytes); }
  void close_when_done() override { agent_.close_when_done(); }
  [[nodiscard]] bool finished() const override { return agent_.finished(); }

 private:
  PacketMux& mux_;
  std::uint64_t conn_;
  MptcpAgent agent_;
};

}  // namespace

TransportPair make_transport_pair(MpShell& shell, const TransportConfig& config,
                                  std::uint64_t connection_id) {
  TransportPair pair;
  if (config.kind == TransportKind::kSinglePath) {
    pair.client =
        std::make_unique<TcpTransport>(shell, config.path, connection_id, true);
    pair.server =
        std::make_unique<TcpTransport>(shell, config.path, connection_id, false);
  } else {
    pair.client = std::make_unique<MptcpTransport>(shell, config.mp, connection_id, true);
    pair.server =
        std::make_unique<MptcpTransport>(shell, config.mp, connection_id, false);
  }
  return pair;
}

HttpExchange synthetic_exchange(std::int64_t request_bytes, std::int64_t response_bytes,
                                Duration server_think) {
  HttpExchange e;
  e.request.method = "GET";
  e.request.uri = "/synthetic";
  e.request.body_bytes = std::max<std::int64_t>(0, request_bytes - 100);
  e.response.body_bytes = std::max<std::int64_t>(0, response_bytes - 100);
  e.server_think = server_think;
  return e;
}

HttpConnectionSim::HttpConnectionSim(MpShell& shell, const TransportConfig& config,
                                     std::uint64_t connection_id,
                                     std::vector<HttpExchange> exchanges)
    : shell_(shell),
      pair_(make_transport_pair(shell, config, connection_id)),
      exchanges_(std::move(exchanges)) {
  std::int64_t req_cum = 0;
  std::int64_t resp_cum = 0;
  for (const auto& e : exchanges_) {
    req_cum += e.request.wire_bytes();
    resp_cum += e.response.wire_bytes();
    request_thresholds_.push_back(req_cum);
    response_thresholds_.push_back(resp_cum);
  }
  pair_.server->on_delivered = [this](std::int64_t total) { on_server_delivered(total); };
  pair_.client->on_delivered = [this](std::int64_t total) { on_client_delivered(total); };
}

void HttpConnectionSim::start(TimePoint at) {
  shell_.sim().schedule_at(at, [this] { begin(); });
}

void HttpConnectionSim::begin() {
  started_at_ = shell_.sim().now();
  pair_.server->listen();
  pair_.client->connect();
  if (exchanges_.empty()) {
    complete_ = true;
    completed_at_ = started_at_;
    pair_.client->close_when_done();
    if (on_complete) on_complete();
    return;
  }
  // First request rides the handshake completion (it is buffered).
  pair_.client->send(exchanges_[0].request.wire_bytes());
  requests_sent_ = 1;
}

void HttpConnectionSim::on_server_delivered(std::int64_t total) {
  while (responses_sent_ < exchanges_.size() &&
         total >= request_thresholds_[responses_sent_]) {
    const std::size_t k = responses_sent_++;
    const std::int64_t bytes = exchanges_[k].response.wire_bytes();
    const Duration think = exchanges_[k].server_think;
    if (think.usec() > 0) {
      shell_.sim().schedule_after(think, [this, bytes] { pair_.server->send(bytes); });
    } else {
      pair_.server->send(bytes);
    }
  }
}

void HttpConnectionSim::on_client_delivered(std::int64_t total) {
  while (responses_done_ < exchanges_.size() &&
         total >= response_thresholds_[responses_done_]) {
    ++responses_done_;
    if (responses_done_ == exchanges_.size()) {
      complete_ = true;
      completed_at_ = shell_.sim().now();
      pair_.client->close_when_done();
      if (on_complete) on_complete();
      return;
    }
    // Next request in the sequence.
    pair_.client->send(exchanges_[requests_sent_].request.wire_bytes());
    ++requests_sent_;
  }
}

}  // namespace mn
