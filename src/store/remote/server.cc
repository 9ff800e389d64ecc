#include "store/remote/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <vector>

#include "store/lockfile.hpp"
#include "store/run_store.hpp"

namespace mn::store::remote {
namespace {

namespace fs = std::filesystem;

/// The writer role: exactly one server per directory.
FileLock claim_serve_lock(const std::string& dir) {
  FileLock lock = FileLock::try_exclusive(serve_lock_path(dir));
  if (!lock.held()) {
    throw std::runtime_error("store server: " + dir +
                             " is already served by another mn_store serve process");
  }
  return lock;
}

}  // namespace

struct StoreServer::Impl {
  explicit Impl(const std::string& dir) : serve_lock(claim_serve_lock(dir)), store(dir) {}

  // ---- storage -------------------------------------------------------
  FileLock serve_lock;  // exclusive: the one server of this directory
  RunStore store;       // holds store.lock shared: the appender role

  // ---- networking ----------------------------------------------------
  int listen_fd = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  std::atomic<bool> stopping{false};

  struct Conn {
    int fd = -1;
    wire::FrameParser parser;
    std::string out;         // bytes not yet written
    std::size_t out_off = 0;
    bool close_after_flush = false;
  };
  std::deque<Conn> conns;

  // ---- traffic counters (mutex: STATS is served from the poll thread
  // but stats() may be called from any thread); entries, segments and
  // bytes_appended are read from the store ----------------------------
  mutable std::mutex stats_mu;
  wire::WireStats counters;

  [[nodiscard]] wire::WireStats snapshot() const {
    wire::WireStats s;
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      s = counters;
    }
    const RunStore::Stats st = store.stats();
    s.entries = st.entries;
    s.segments = st.segments_loaded;
    s.bytes_appended = st.bytes_written;
    return s;
  }

  ~Impl() {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_rd >= 0) ::close(wake_rd);
    if (wake_wr >= 0) ::close(wake_wr);
  }

  // ---- request handling ---------------------------------------------
  [[nodiscard]] std::string handle(const wire::Message& msg) {
    using wire::Op;
    switch (msg.op) {
      case Op::kPing:
        return wire::encode_frame(Op::kPong,
                                  wire::encode_nonce_body(wire::decode_nonce_body(msg.body)));
      case Op::kGet: {
        const ScenarioKey key = wire::decode_key_body(msg.body);
        const auto blob = store.find(key);
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          ++counters.gets;
          blob ? ++counters.hits : ++counters.misses;
        }
        return wire::encode_frame(Op::kGetReply, wire::encode_blob_reply(blob));
      }
      case Op::kMultiGet: {
        const std::vector<ScenarioKey> keys = wire::decode_keys_body(msg.body);
        std::vector<std::optional<std::string_view>> blobs;
        blobs.reserve(keys.size());
        std::uint64_t hit = 0;
        for (const ScenarioKey& k : keys) {
          blobs.push_back(store.find(k));
          if (blobs.back()) ++hit;
        }
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          ++counters.multi_gets;
          counters.hits += hit;
          counters.misses += keys.size() - hit;
        }
        return wire::encode_frame(Op::kMultiGetReply, wire::encode_blobs_reply(blobs));
      }
      case Op::kPut: {
        const auto [key, blob] = wire::decode_put_body(msg.body);
        // A failed disk write answers status 1: the client treats the
        // write as dropped, and the server keeps serving.
        bool ok = true;
        try {
          store.put(key, blob);
        } catch (const std::exception&) {
          ok = false;
        }
        if (ok) {
          std::lock_guard<std::mutex> lock(stats_mu);
          ++counters.puts;
        }
        return wire::encode_frame(Op::kPutReply, wire::encode_status_body(ok ? 0 : 1));
      }
      case Op::kStats:
        return wire::encode_frame(Op::kStatsReply, wire::encode_stats_reply(snapshot()));
      default:
        throw wire::WireError("request with reply-only op " +
                              std::to_string(static_cast<int>(msg.op)));
    }
  }

  // ---- connection plumbing ------------------------------------------
  void enqueue(Conn& c, std::string bytes) {
    if (c.out_off > 0 && c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    c.out += bytes;
    flush(c);
  }

  /// Write as much pending output as the socket accepts now.
  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // POLLOUT later
      close_conn(c);  // peer went away mid-write
      return;
    }
    if (c.close_after_flush) close_conn(c);
  }

  void close_conn(Conn& c) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
  }

  void read_conn(Conn& c) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.parser.feed({buf, static_cast<std::size_t>(n)});
        if (n < static_cast<ssize_t>(sizeof buf)) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(c);  // orderly EOF or hard error either way
      return;
    }
    // Serve every complete request in arrival order.  A protocol error
    // poisons the stream: answer ERROR, then close after flushing.
    try {
      while (auto msg = c.parser.next()) {
        if (c.fd < 0 || c.close_after_flush) return;
        enqueue(c, handle(*msg));
      }
    } catch (const wire::WireError& e) {
      {
        std::lock_guard<std::mutex> lock(stats_mu);
        ++counters.protocol_errors;
      }
      if (c.fd >= 0) {
        c.close_after_flush = true;
        enqueue(c, wire::encode_frame(wire::Op::kError, wire::encode_error_body(e.what())));
      }
    }
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept error: poll again later
      }
      Conn c;
      c.fd = fd;
      conns.push_back(std::move(c));
      std::lock_guard<std::mutex> lock(stats_mu);
      ++counters.connections;
    }
  }

  void poll_once(int timeout_ms) {
    // Reap closed connections first so pollfds and conns stay aligned.
    for (auto it = conns.begin(); it != conns.end();) {
      it = (it->fd < 0) ? conns.erase(it) : std::next(it);
    }
    std::vector<pollfd> fds;
    fds.reserve(conns.size() + 2);
    fds.push_back({listen_fd, POLLIN, 0});
    fds.push_back({wake_rd, POLLIN, 0});
    for (const Conn& c : conns) {
      short events = POLLIN;
      if (c.out_off < c.out.size()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }
    int rc;
    do {
      rc = ::poll(fds.data(), fds.size(), timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) return;
    if ((fds[1].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_rd, drain, sizeof drain) > 0) {
      }
    }
    if ((fds[0].revents & POLLIN) != 0) accept_new();
    // conns may grow during accept; only the polled prefix has revents.
    const std::size_t polled = fds.size() - 2;
    for (std::size_t i = 0; i < polled && i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.fd < 0) continue;
      const short re = fds[i + 2].revents;
      if ((re & (POLLERR | POLLHUP | POLLNVAL)) != 0 && (re & POLLIN) == 0) {
        close_conn(c);
        continue;
      }
      if ((re & POLLOUT) != 0) flush(c);
      if (c.fd >= 0 && (re & POLLIN) != 0) read_conn(c);
    }
  }
};

StoreServer::StoreServer(StoreServerOptions options) : options_(std::move(options)) {
  endpoint_ = parse_endpoint(options_.socket_spec);
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) throw std::runtime_error("store server: cannot create directory " + options_.dir);

  impl_ = std::make_unique<Impl>(options_.dir);

  impl_->listen_fd = listen_endpoint(endpoint_);
  if (endpoint_.kind == Endpoint::Kind::kTcp && endpoint_.port == 0) {
    endpoint_.port = local_tcp_port(impl_->listen_fd);
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("store server: pipe2: " + std::string{std::strerror(errno)});
  }
  impl_->wake_rd = pipe_fds[0];
  impl_->wake_wr = pipe_fds[1];
}

StoreServer::~StoreServer() {
  if (impl_ && endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());  // best effort; stale files are reclaimed anyway
  }
}

void StoreServer::run() {
  while (!impl_->stopping) poll_once(200);
}

void StoreServer::stop() {
  impl_->stopping = true;
  const char byte = 'w';
  ssize_t rc;
  do {
    rc = ::write(impl_->wake_wr, &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

void StoreServer::poll_once(int timeout_ms) { impl_->poll_once(timeout_ms); }

std::uint16_t StoreServer::tcp_port() const { return endpoint_.port; }

wire::WireStats StoreServer::stats() const { return impl_->snapshot(); }

obs::MetricsSnapshot StoreServer::metrics_snapshot() const {
  const wire::WireStats s = stats();
  obs::MetricsRegistry reg;
  reg.add(reg.counter("store.server.gets"), static_cast<std::int64_t>(s.gets));
  reg.add(reg.counter("store.server.multi_gets"), static_cast<std::int64_t>(s.multi_gets));
  reg.add(reg.counter("store.server.hits"), static_cast<std::int64_t>(s.hits));
  reg.add(reg.counter("store.server.misses"), static_cast<std::int64_t>(s.misses));
  reg.add(reg.counter("store.server.puts"), static_cast<std::int64_t>(s.puts));
  reg.add(reg.counter("store.server.bytes_appended"),
          static_cast<std::int64_t>(s.bytes_appended));
  reg.add(reg.counter("store.server.connections"), static_cast<std::int64_t>(s.connections));
  reg.add(reg.counter("store.server.protocol_errors"),
          static_cast<std::int64_t>(s.protocol_errors));
  reg.set(reg.gauge("store.server.entries"), static_cast<std::int64_t>(s.entries));
  reg.set(reg.gauge("store.server.segments"), static_cast<std::int64_t>(s.segments));
  return reg.snapshot();
}

}  // namespace mn::store::remote
