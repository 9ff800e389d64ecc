// mn_store: operator tooling for MNRS1 result-store directories and
// the MNSP1 store service.
//
// Local (directory) commands:
//   mn_store dump <dir>     list every live record (key, blob size)
//   mn_store verify <dir>   integrity-check all segments; exit 1 on damage
//   mn_store compact <dir>  rewrite live entries into one sealed segment
//   mn_store stats <dir>    entry/segment counts + Prometheus metrics
//
// Service commands:
//   mn_store serve <dir> --socket <path|host:port>
//                           run the single-writer store server until
//                           SIGINT/SIGTERM
//   mn_store get <endpoint> <keyhex>
//                           fetch one record over the wire (exit 3 = miss)
//   mn_store ping <endpoint>
//                           round-trip liveness probe
//   mn_store rstats <endpoint>
//                           remote server counters + Prometheus metrics
//
// verify is pure read (safe on a store another process is writing);
// compact rewrites the directory and must own it exclusively — it fails
// fast with "busy" while a server or another appender holds the lock.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include "measure/campaign.hpp"
#include "store/remote/client.hpp"
#include "store/remote/server.hpp"
#include "store/run_store.hpp"

namespace {

int usage() {
  std::cerr << "usage: mn_store <dump|verify|compact|stats> <store-dir>\n"
               "       mn_store serve <store-dir> --socket <path|host:port>\n"
               "       mn_store get <endpoint> <keyhex>\n"
               "       mn_store ping <endpoint>\n"
               "       mn_store rstats <endpoint>\n";
  return 2;
}

int cmd_dump(const std::string& dir) {
  mn::store::RunStore store{dir};
  for (const auto& [key, blob] : store.sorted_entries()) {
    std::cout << key.hex() << "  " << blob.size() << " bytes";
    // Campaign stores hold RunRecord blobs; decode what we can so the
    // operator sees the payload, not just its size.  Foreign blobs
    // (or future layouts) degrade to the size-only line.
    try {
      const mn::RunRecord rec = mn::parse_run_record(blob);
      std::cout << "  cluster=" << rec.cluster;
      if (rec.mp_probed) {
        std::cout << "  scheduler=" << (rec.scheduler.empty() ? "-" : rec.scheduler);
        for (const mn::PathId p : mn::kPaths) {
          std::cout << "  energy_" << mn::path_name(p) << "_j=" << rec.energy_j[p];
        }
      }
    } catch (const std::exception&) {
    }
    std::cout << "\n";
  }
  std::cout << store.size() << " record(s)\n";
  return 0;
}

int cmd_verify(const std::string& dir) {
  const mn::store::VerifyReport report = mn::store::verify_store(dir);
  std::cout << report.text;
  std::cout << report.segments << " segment(s), " << report.sealed_segments << " sealed, "
            << report.records << " record(s)";
  if (report.torn_frames > 0) std::cout << ", " << report.torn_frames << " torn frame(s)";
  if (report.truncated_bytes > 0) {
    std::cout << ", " << report.truncated_bytes << " byte(s) truncated";
  }
  if (report.version_mismatches > 0) {
    std::cout << ", " << report.version_mismatches << " refused segment(s)";
  }
  std::cout << (report.ok() ? "\nOK\n" : "\nDAMAGED\n");
  if (!report.ok()) {
    // Per-segment bad-frame summary: exactly which files hold damage,
    // with the reader's offset notes — what an operator greps for.
    std::cout << "bad frames by segment:\n";
    for (const auto& seg : report.per_segment) {
      if (!seg.damaged()) continue;
      std::cout << "  " << seg.file << ": ";
      if (seg.refused) {
        std::cout << "refused (" << seg.note << ")\n";
      } else {
        std::cout << seg.torn_frames << " bad frame(s)";
        if (!seg.note.empty()) std::cout << " [" << seg.note << "]";
        std::cout << "\n";
      }
    }
  }
  return report.ok() ? 0 : 1;
}

int cmd_compact(const std::string& dir) {
  mn::store::RunStore store{dir};
  const auto before = store.stats();
  store.compact();
  std::cout << "compacted " << before.segments_loaded << " segment(s) ("
            << before.entries << " live record(s), " << before.torn_frames
            << " torn frame(s) dropped) into 1 sealed segment\n";
  return 0;
}

int cmd_stats(const std::string& dir) {
  mn::store::RunStore store{dir};
  const auto s = store.stats();
  std::cout << "dir:              " << store.dir() << "\n"
            << "entries:          " << s.entries << "\n"
            << "segments loaded:  " << s.segments_loaded << "\n"
            << "segments refused: " << s.segments_skipped << "\n"
            << "torn frames:      " << s.torn_frames << "\n\n"
            << store.metrics_snapshot().prometheus_text();
  return 0;
}

// ---- service commands ------------------------------------------------

mn::store::remote::StoreServer* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  // stop() is async-signal-safe enough for our purpose: an atomic store
  // plus one write(2) on the self-pipe.
  if (g_server != nullptr) g_server->stop();
}

int cmd_serve(const std::string& dir, const std::string& socket_spec) {
  mn::store::remote::StoreServer server{{dir, socket_spec}};
  g_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::cout << "mn_store: serving " << dir << " on " << server.endpoint().describe();
  if (server.endpoint().kind == mn::store::remote::Endpoint::Kind::kTcp) {
    std::cout << " (port " << server.tcp_port() << ")";
  }
  std::cout << std::endl;  // flush: scripts wait for this line before connecting

  server.run();

  const auto s = server.stats();
  g_server = nullptr;
  std::cout << "mn_store: served " << s.gets << " get(s), " << s.multi_gets
            << " multi_get(s), " << s.puts << " put(s) over " << s.connections
            << " connection(s); " << s.entries << " record(s) in " << s.segments
            << " segment(s)\n";
  return 0;
}

mn::store::remote::RemoteStore make_client(const std::string& endpoint) {
  mn::store::remote::RemoteStoreOptions opt;
  opt.endpoint = endpoint;
  // Operator commands should fail fast, not sit through retry backoff.
  opt.max_attempts = 1;
  return mn::store::remote::RemoteStore{std::move(opt)};
}

int cmd_get(const std::string& endpoint, const std::string& keyhex) {
  const auto key = mn::store::ScenarioKey::from_hex(keyhex);
  if (!key) {
    std::cerr << "mn_store: bad key (want 32 hex digits): " << keyhex << "\n";
    return 2;
  }
  auto client = make_client(endpoint);
  const auto blob = client.lookup(*key);
  if (client.stats().degraded > 0) {
    std::cerr << "mn_store: cannot reach " << endpoint << "\n";
    return 1;
  }
  if (!blob) {
    std::cerr << "mn_store: miss " << key->hex() << "\n";
    return 3;
  }
  std::cout << key->hex() << "  " << blob->size() << " bytes";
  try {
    const mn::RunRecord rec = mn::parse_run_record(*blob);
    std::cout << "  cluster=" << rec.cluster;
  } catch (const std::exception&) {
  }
  std::cout << "\n";
  return 0;
}

int cmd_ping(const std::string& endpoint) {
  auto client = make_client(endpoint);
  if (client.ping()) {
    std::cout << "PONG " << endpoint << "\n";
    return 0;
  }
  std::cerr << "mn_store: no pong from " << endpoint << "\n";
  return 1;
}

int cmd_rstats(const std::string& endpoint) {
  auto client = make_client(endpoint);
  const auto s = client.server_stats();
  if (!s) {
    std::cerr << "mn_store: cannot reach " << endpoint << "\n";
    return 1;
  }
  std::cout << "endpoint:         " << endpoint << "\n"
            << "entries:          " << s->entries << "\n"
            << "segments:         " << s->segments << "\n"
            << "gets:             " << s->gets << "\n"
            << "multi_gets:       " << s->multi_gets << "\n"
            << "hits:             " << s->hits << "\n"
            << "misses:           " << s->misses << "\n"
            << "puts:             " << s->puts << "\n"
            << "bytes_appended:   " << s->bytes_appended << "\n"
            << "connections:      " << s->connections << "\n"
            << "protocol_errors:  " << s->protocol_errors << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (argc == 3) {
      const std::string arg = argv[2];
      if (cmd == "dump") return cmd_dump(arg);
      if (cmd == "verify") return cmd_verify(arg);
      if (cmd == "compact") return cmd_compact(arg);
      if (cmd == "stats") return cmd_stats(arg);
      if (cmd == "ping") return cmd_ping(arg);
      if (cmd == "rstats") return cmd_rstats(arg);
    }
    if (cmd == "serve" && argc == 5 && std::string{argv[3]} == "--socket") {
      return cmd_serve(argv[2], argv[4]);
    }
    if (cmd == "get" && argc == 4) return cmd_get(argv[2], argv[3]);
  } catch (const std::exception& e) {
    std::cerr << "mn_store: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
