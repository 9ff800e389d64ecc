#include "store/remote/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <thread>

namespace mn::store::remote {

namespace {
/// Circuit-breaker cap: after repeated whole-operation failures, at
/// most this many subsequent operations are skipped (degraded without
/// touching the socket) before probing the server again.
constexpr int kMaxSkip = 64;
}  // namespace

RemoteStore::RemoteStore(RemoteStoreOptions options)
    : options_(std::move(options)), endpoint_(parse_endpoint(options_.endpoint)) {}

RemoteStore::~RemoteStore() {
  std::lock_guard<std::mutex> lock(mu_);
  drop_connection_locked();
}

bool RemoteStore::ensure_connected_locked() {
  if (fd_ >= 0) return true;
  const int fd = connect_endpoint(endpoint_, options_.connect_timeout, options_.io_timeout);
  if (fd < 0) return false;
  fd_ = fd;
  parser_ = wire::FrameParser{};  // a fresh connection is a fresh stream
  if (ever_connected_) ++stats_.reconnects;
  ever_connected_ = true;
  return true;
}

void RemoteStore::drop_connection_locked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool RemoteStore::breaker_skips_locked() {
  if (skip_remaining_ <= 0) return false;
  --skip_remaining_;
  ++stats_.degraded;
  ++stats_.skipped;
  return true;
}

void RemoteStore::note_failure_locked() {
  ++stats_.degraded;
  // Next 2^streak operations degrade instantly, capped: a dead server
  // costs the campaign O(1) failed connects per kMaxSkip runs.
  failure_streak_ = std::min(failure_streak_ + 1, 30);
  const long skip = 1L << std::min(failure_streak_, 10);
  skip_remaining_ = static_cast<int>(std::min<long>(skip, kMaxSkip));
}

void RemoteStore::note_success_locked() {
  failure_streak_ = 0;
  skip_remaining_ = 0;
}

std::optional<wire::Message> RemoteStore::exchange_locked(wire::Op op, std::string_view body,
                                                          wire::Op expect) {
  std::chrono::milliseconds backoff = options_.initial_backoff;
  for (int attempt = 0; attempt < std::max(1, options_.max_attempts); ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, options_.max_backoff);
    }
    if (!ensure_connected_locked()) continue;
    if (!send_all(fd_, wire::encode_frame(op, body))) {
      drop_connection_locked();
      continue;
    }
    // Read exactly one reply frame (requests are strictly serial on
    // this connection, so the next complete message is ours).
    try {
      char buf[64 * 1024];
      for (;;) {
        if (auto msg = parser_.next()) {
          if (msg->op == wire::Op::kError) {
            ++stats_.protocol_errors;
            drop_connection_locked();
            break;  // retry (the server closes after ERROR anyway)
          }
          if (msg->op != expect) {
            ++stats_.protocol_errors;
            drop_connection_locked();
            break;
          }
          note_success_locked();
          return msg;
        }
        const long n = recv_some(fd_, buf, sizeof buf);
        if (n <= 0) {  // EOF, timeout, or reset mid-reply
          drop_connection_locked();
          break;
        }
        parser_.feed({buf, static_cast<std::size_t>(n)});
      }
    } catch (const wire::WireError&) {
      ++stats_.protocol_errors;
      drop_connection_locked();
    }
  }
  note_failure_locked();
  return std::nullopt;
}

std::optional<std::string> RemoteStore::lookup(const ScenarioKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (breaker_skips_locked()) return std::nullopt;
  auto reply = exchange_locked(wire::Op::kGet, wire::encode_key_body(key), wire::Op::kGetReply);
  if (!reply) return std::nullopt;
  try {
    auto blob = wire::decode_blob_reply(reply->body);
    blob ? ++stats_.hits : ++stats_.misses;
    return blob;
  } catch (const wire::WireError&) {
    ++stats_.protocol_errors;
    ++stats_.degraded;
    drop_connection_locked();
    return std::nullopt;
  }
}

std::vector<std::optional<std::string>> RemoteStore::lookup_many(
    const std::vector<ScenarioKey>& keys) {
  std::vector<std::optional<std::string>> out(keys.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t start = 0; start < keys.size(); start += wire::kMultiGetBatch) {
    const std::size_t n = std::min(wire::kMultiGetBatch, keys.size() - start);
    if (breaker_skips_locked()) continue;  // the whole chunk degrades to misses
    const std::vector<ScenarioKey> chunk(keys.begin() + static_cast<std::ptrdiff_t>(start),
                                         keys.begin() + static_cast<std::ptrdiff_t>(start + n));
    auto reply = exchange_locked(wire::Op::kMultiGet, wire::encode_keys_body(chunk),
                                 wire::Op::kMultiGetReply);
    if (!reply) continue;
    try {
      auto blobs = wire::decode_blobs_reply(reply->body);
      if (blobs.size() != n) throw wire::WireError("MULTI_GET reply count mismatch");
      for (std::size_t i = 0; i < n; ++i) {
        blobs[i] ? ++stats_.hits : ++stats_.misses;
        out[start + i] = std::move(blobs[i]);
      }
    } catch (const wire::WireError&) {
      ++stats_.protocol_errors;
      ++stats_.degraded;
      drop_connection_locked();
      // Leave the chunk as misses; later chunks may still succeed.
    }
  }
  return out;
}

void RemoteStore::put(const ScenarioKey& key, std::string_view blob) {
  std::lock_guard<std::mutex> lock(mu_);
  if (breaker_skips_locked()) return;
  auto reply =
      exchange_locked(wire::Op::kPut, wire::encode_put_body(key, blob), wire::Op::kPutReply);
  if (!reply) return;
  try {
    if (wire::decode_status_body(reply->body) == 0) {
      ++stats_.puts;
    } else {
      ++stats_.degraded;  // server could not append durably: write dropped
    }
  } catch (const wire::WireError&) {
    ++stats_.protocol_errors;
    ++stats_.degraded;
    drop_connection_locked();
  }
}

bool RemoteStore::ping() {
  std::lock_guard<std::mutex> lock(mu_);
  if (breaker_skips_locked()) return false;
  const std::uint64_t nonce = 0x6d6e73703170696eull;  // arbitrary, echoed back
  auto reply =
      exchange_locked(wire::Op::kPing, wire::encode_nonce_body(nonce), wire::Op::kPong);
  if (!reply) return false;
  try {
    return wire::decode_nonce_body(reply->body) == nonce;
  } catch (const wire::WireError&) {
    ++stats_.protocol_errors;
    ++stats_.degraded;
    drop_connection_locked();
    return false;
  }
}

std::optional<wire::WireStats> RemoteStore::server_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  if (breaker_skips_locked()) return std::nullopt;
  auto reply = exchange_locked(wire::Op::kStats, {}, wire::Op::kStatsReply);
  if (!reply) return std::nullopt;
  try {
    return wire::decode_stats_reply(reply->body);
  } catch (const wire::WireError&) {
    ++stats_.protocol_errors;
    ++stats_.degraded;
    drop_connection_locked();
    return std::nullopt;
  }
}

RemoteStore::Stats RemoteStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

obs::MetricsSnapshot RemoteStore::metrics_snapshot() const {
  const Stats s = stats();
  obs::MetricsRegistry reg;
  reg.add(reg.counter("store.remote.hits"), static_cast<std::int64_t>(s.hits));
  reg.add(reg.counter("store.remote.misses"), static_cast<std::int64_t>(s.misses));
  reg.add(reg.counter("store.remote.puts"), static_cast<std::int64_t>(s.puts));
  reg.add(reg.counter("store.remote.reconnects"), static_cast<std::int64_t>(s.reconnects));
  reg.add(reg.counter("store.remote.degraded"), static_cast<std::int64_t>(s.degraded));
  reg.add(reg.counter("store.remote.skipped"), static_cast<std::int64_t>(s.skipped));
  reg.add(reg.counter("store.remote.protocol_errors"),
          static_cast<std::int64_t>(s.protocol_errors));
  return reg.snapshot();
}

}  // namespace mn::store::remote
