// RemoteStore <-> StoreServer: the client/server pair over a real Unix
// socket, in-process.  Round trips, degradation on every failure mode,
// and thread-safety of the shared client.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "store/remote/client.hpp"
#include "store/remote/server.hpp"
#include "store/remote/socket.hpp"
#include "store/run_store.hpp"
#include "store/segment.hpp"

namespace mn::store::remote {
namespace {

namespace fs = std::filesystem;

ScenarioKey key_of(std::uint64_t hi, std::uint64_t lo) { return ScenarioKey{hi, lo}; }

class RemoteStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::path(::testing::TempDir()) /
            ("remote_" + std::string{::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name()});
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    stop_server();
    fs::remove_all(base_);
  }

  [[nodiscard]] std::string store_dir() const { return (base_ / "store").string(); }
  [[nodiscard]] std::string sock() const { return (base_ / "mn.sock").string(); }

  void start_server() {
    server_ = std::make_unique<StoreServer>(StoreServerOptions{store_dir(), sock()});
    server_thread_ = std::thread([this] { server_->run(); });
  }
  void stop_server() {
    if (server_) server_->stop();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
  }

  [[nodiscard]] RemoteStore make_client(int max_attempts = 3) const {
    RemoteStoreOptions opt;
    opt.endpoint = sock();
    opt.max_attempts = max_attempts;
    opt.initial_backoff = std::chrono::milliseconds{1};
    opt.max_backoff = std::chrono::milliseconds{5};
    opt.connect_timeout = std::chrono::milliseconds{500};
    opt.io_timeout = std::chrono::milliseconds{2000};
    return RemoteStore{std::move(opt)};
  }

  fs::path base_;
  std::unique_ptr<StoreServer> server_;
  std::thread server_thread_;
};

TEST_F(RemoteStoreTest, PutLookupRoundTripsThroughTheServer) {
  start_server();
  auto client = make_client();
  EXPECT_TRUE(client.ping());

  EXPECT_FALSE(client.lookup(key_of(1, 2)).has_value());
  client.put(key_of(1, 2), "hello over the wire");
  EXPECT_EQ(client.lookup(key_of(1, 2)), "hello over the wire");
  client.put(key_of(1, 2), "superseded");
  EXPECT_EQ(client.lookup(key_of(1, 2)), "superseded");
  client.put(key_of(3, 4), std::string(100'000, 'x'));  // a fat blob
  EXPECT_EQ(client.lookup(key_of(3, 4))->size(), 100'000u);

  const auto s = client.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.puts, 3u);
  EXPECT_EQ(s.degraded, 0u);

  stop_server();
  // Durability: what the server appended is an ordinary MNRS1 store.
  RunStore disk{store_dir()};
  EXPECT_EQ(disk.size(), 2u);
  EXPECT_EQ(disk.lookup(key_of(1, 2)), "superseded");
  EXPECT_TRUE(verify_store(store_dir()).ok());
}

TEST_F(RemoteStoreTest, LookupManyBatchesAndPreservesOrder) {
  start_server();
  auto client = make_client();
  std::vector<ScenarioKey> keys;
  // More than one MULTI_GET chunk, hits interleaved with misses.
  for (std::uint64_t i = 0; i < wire::kMultiGetBatch + 50; ++i) {
    keys.push_back(key_of(i, i * 3));
    if (i % 2 == 0) client.put(keys.back(), "blob-" + std::to_string(i));
  }
  const auto blobs = client.lookup_many(keys);
  ASSERT_EQ(blobs.size(), keys.size());
  for (std::uint64_t i = 0; i < blobs.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(blobs[i], "blob-" + std::to_string(i));
    } else {
      EXPECT_FALSE(blobs[i].has_value());
    }
  }
  // Exactly ceil(n / batch) = 2 round trips on the server side.
  EXPECT_EQ(server_->stats().multi_gets, 2u);
}

TEST_F(RemoteStoreTest, ServerLoadsExistingSegmentsAndServesThem) {
  {
    RunStore local{store_dir()};
    local.put(key_of(9, 9), "written locally before the server started");
  }
  start_server();
  auto client = make_client();
  EXPECT_EQ(client.lookup(key_of(9, 9)), "written locally before the server started");
  EXPECT_EQ(server_->stats().entries, 1u);
}

TEST_F(RemoteStoreTest, ServerAndRunStoreAgreeOnEveryKeyAndCount) {
  // One directory holding every supersede and damage case the shared
  // engine resolves: a key superseded across two segments, a torn tail,
  // a refused future-format segment, then repeated PUTs in the session.
  {
    RunStore first{store_dir()};
    first.put(key_of(1, 1), "a-old");
    first.put(key_of(2, 2), "b");
  }
  {
    RunStore second{store_dir()};
    second.put(key_of(1, 1), "a-new");
  }
  {
    // A writer that died mid-append: record (4,4) is torn away.
    const std::string torn = claim_next_segment(store_dir());
    std::uint64_t keep = kSegmentMagic.size() + 4;
    {
      SegmentWriter w{torn};
      keep += w.append(key_of(3, 3), "c");
      w.append(key_of(4, 4), "d-torn");
    }
    fs::resize_file(torn, keep + 5);
  }
  std::ofstream{base_ / "store" / "seg-000050.mnrs", std::ios::binary}
      << "MNRS9\nrecords from a future format";

  start_server();
  auto client = make_client();
  for (int i = 0; i < 3; ++i) client.put(key_of(5, 5), "e-" + std::to_string(i));
  client.put(key_of(2, 2), "b-session");

  RunStore local{store_dir()};  // shared lock: coexists with the server
  EXPECT_EQ(local.lookup(key_of(1, 1)), "a-new");
  EXPECT_EQ(local.lookup(key_of(2, 2)), "b-session");
  EXPECT_EQ(local.lookup(key_of(5, 5)), "e-2");
  EXPECT_FALSE(local.lookup(key_of(4, 4)).has_value());
  EXPECT_EQ(local.stats().segments_skipped, 1u);
  EXPECT_GE(local.stats().torn_frames, 1u);

  std::vector<ScenarioKey> keys;
  for (std::uint64_t k = 1; k <= 6; ++k) keys.push_back(key_of(k, k));
  const auto many = client.lookup_many(keys);
  ASSERT_EQ(many.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto expected = local.lookup(keys[i]);
    EXPECT_EQ(client.lookup(keys[i]), expected) << keys[i].hex();
    EXPECT_EQ(many[i], expected) << keys[i].hex();
  }

  const auto remote_stats = client.server_stats();
  ASSERT_TRUE(remote_stats.has_value());
  EXPECT_EQ(remote_stats->entries, local.stats().entries);
  EXPECT_EQ(remote_stats->segments, local.stats().segments_loaded);
  EXPECT_EQ(remote_stats->entries, 4u);
  EXPECT_EQ(remote_stats->segments, 4u);  // three on disk + the session's
}

TEST_F(RemoteStoreTest, DeadEndpointDegradesToMissesNeverThrows) {
  // No server at all: every operation degrades, nothing throws.
  auto client = make_client(/*max_attempts=*/2);
  EXPECT_FALSE(client.lookup(key_of(1, 1)).has_value());
  client.put(key_of(1, 1), "dropped");
  EXPECT_FALSE(client.ping());
  const auto blobs = client.lookup_many({key_of(1, 1), key_of(2, 2)});
  EXPECT_FALSE(blobs[0].has_value());
  EXPECT_FALSE(blobs[1].has_value());
  const auto s = client.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.puts, 0u);
  EXPECT_GT(s.degraded, 0u);
  // The circuit breaker answered some of those without a socket.
  EXPECT_GT(s.skipped, 0u);
}

TEST_F(RemoteStoreTest, ServerKilledMidSessionDegradesThenRecovers) {
  start_server();
  auto client = make_client(/*max_attempts=*/1);
  client.put(key_of(5, 5), "before the kill");
  EXPECT_EQ(client.lookup(key_of(5, 5)), "before the kill");

  stop_server();
  // Degraded, not broken.
  EXPECT_FALSE(client.lookup(key_of(5, 5)).has_value());
  EXPECT_GT(client.stats().degraded, 0u);

  // A new server over the same directory serves the old record; the
  // client reconnects through its breaker within its 64-operation skip cap.
  start_server();
  std::optional<std::string> back;
  for (int i = 0; i < 200 && !back; ++i) back = client.lookup(key_of(5, 5));
  EXPECT_EQ(back, "before the kill");
  EXPECT_GE(client.stats().reconnects, 1u);
}

TEST_F(RemoteStoreTest, GarbageServerIsAProtocolErrorNotData) {
  // A listener that answers every frame with garbage bytes.
  const Endpoint ep = parse_endpoint(sock());
  const int listen_fd = listen_endpoint(ep);
  std::thread garbage([listen_fd] {
    for (;;) {
      struct pollfd p = {listen_fd, POLLIN, 0};
      if (::poll(&p, 1, 2000) <= 0) break;
      const int c = ::accept(listen_fd, nullptr, nullptr);
      if (c < 0) break;
      char buf[4096];
      if (::recv(c, buf, sizeof buf, 0) > 0) {
        const char junk[] = "HTTP/1.1 200 OK\r\n\r\nnot MNSP1 at all";
        (void)::send(c, junk, sizeof junk, MSG_NOSIGNAL);
      }
      ::close(c);
    }
  });

  auto client = make_client(/*max_attempts=*/2);
  EXPECT_FALSE(client.lookup(key_of(1, 1)).has_value());
  const auto s = client.stats();
  EXPECT_GT(s.protocol_errors, 0u);
  EXPECT_GT(s.degraded, 0u);
  ::close(listen_fd);
  garbage.join();
}

TEST_F(RemoteStoreTest, SecondServerOnTheSameDirectoryFailsFast) {
  start_server();
  EXPECT_THROW(
      StoreServer({store_dir(), (base_ / "other.sock").string()}),
      std::runtime_error);
}

TEST_F(RemoteStoreTest, TcpEndpointWorksEndToEnd) {
  server_ = std::make_unique<StoreServer>(
      StoreServerOptions{store_dir(), "127.0.0.1:0"});
  const std::uint16_t port = server_->tcp_port();
  ASSERT_GT(port, 0);
  server_thread_ = std::thread([this] { server_->run(); });

  RemoteStoreOptions opt;
  opt.endpoint = "127.0.0.1:" + std::to_string(port);
  RemoteStore client{std::move(opt)};
  EXPECT_TRUE(client.ping());
  client.put(key_of(8, 8), "over tcp");
  EXPECT_EQ(client.lookup(key_of(8, 8)), "over tcp");
}

TEST_F(RemoteStoreTest, ServerStatsAndMetricsExposeTraffic) {
  start_server();
  auto client = make_client();
  client.put(key_of(1, 1), "x");
  (void)client.lookup(key_of(1, 1));
  (void)client.lookup(key_of(2, 2));

  const auto remote_stats = client.server_stats();
  ASSERT_TRUE(remote_stats.has_value());
  EXPECT_EQ(remote_stats->puts, 1u);
  EXPECT_EQ(remote_stats->gets, 2u);
  EXPECT_EQ(remote_stats->hits, 1u);
  EXPECT_EQ(remote_stats->misses, 1u);
  EXPECT_EQ(remote_stats->entries, 1u);
  EXPECT_GT(remote_stats->bytes_appended, 0u);

  const std::string server_text = server_->metrics_snapshot().prometheus_text();
  EXPECT_NE(server_text.find("store_server_puts 1"), std::string::npos);
  const std::string client_text = client.metrics_snapshot().prometheus_text();
  EXPECT_NE(client_text.find("store_remote_hits 1"), std::string::npos);
  EXPECT_NE(client_text.find("store_remote_puts 1"), std::string::npos);
}

// Named "Concurrent" so the TSan CI job picks it up: many threads
// hammer one shared RemoteStore, which must serialize cleanly.
TEST_F(RemoteStoreTest, ConcurrentClientsShareOneRemoteStoreSafely) {
  start_server();
  auto client = make_client();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto key = key_of(static_cast<std::uint64_t>(t),
                                static_cast<std::uint64_t>(i));
        client.put(key, "t" + std::to_string(t) + "-" + std::to_string(i));
        EXPECT_EQ(client.lookup(key), "t" + std::to_string(t) + "-" + std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = client.stats();
  EXPECT_EQ(s.puts, static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(s.degraded, 0u);
  EXPECT_EQ(server_->stats().entries, static_cast<std::uint64_t>(kThreads * kOpsPerThread));
}

}  // namespace
}  // namespace mn::store::remote
