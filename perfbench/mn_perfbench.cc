// mn_perfbench: one process runs one named macro workload of the
// multinet library, times it, checks its output, and prints one JSON
// object as the last line of standard output.  perfbench/run.py builds
// this binary and wraps it in the benchmark command-line contract;
// BENCHMARK.json says why each workload and metric exists.
//
//   mn_perfbench --workload <bulk|replay|world|campaign_cold|campaign_warm>
//                --seed <n> --seconds <s> --trace <0|1>
//                --workdir <dir> [--trace-out <dir>]
//
// --trace 0 (end-to-end run): closed loop over whole passes of the
// workload through the product entry points (run_transport_flow,
// replay_app, run_world, run_campaign) with obs off, until --seconds
// have elapsed.  Every input is drawn from --seed before timing starts.
//
// --trace 1 (per-layer run): the same passes untraced for half the time,
// then the same computation made through the public functions those
// entry points are built from, with a span around every call into a
// layer.  Spans stay in memory and are written at exit as Chrome-trace
// JSON plus a self-time table per layer.  The traced digest must equal
// the untraced one.
//
// Everything runs on the calling thread: every parallelism knob the
// library has is pinned to serial.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "app/pattern.hpp"
#include "app/replay.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "emu/mpshell.hpp"
#include "measure/campaign.hpp"
#include "measure/locations20.hpp"
#include "measure/streaming.hpp"
#include "measure/world.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "store/run_store.hpp"
#include "util/inplace_function.hpp"
#include "util/units.hpp"
#include "world/shared_world.hpp"

#ifndef MN_PERFBENCH_BUILD_TYPE
#define MN_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mn;
using Clock = std::chrono::steady_clock;

/// The seed whose outputs every run re-checks against a golden digest,
/// whatever --seed it was given.
constexpr std::uint64_t kDefaultSeed = 1;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Seeds and digests

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Independent input seed for stream `tag` (and index `i`) of a run.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t i = 0) {
  return splitmix64(splitmix64(splitmix64(seed) ^ tag) ^ i);
}

/// 64-bit FNV-1a over every byte of the workload's output.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ull;
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// ---------------------------------------------------------------------
// Spans

/// In-memory span log.  A span's layer is its name up to the first '.';
/// its self time is its duration minus the part its children cover.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };

  std::int32_t open(const char* name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), -1, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] static std::string layer_of(const char* name) {
    const char* dot = std::strchr(name, '.');
    return dot ? std::string(name, dot) : std::string(name);
  }

  /// Seconds spent in spans named exactly `name` (children included).
  [[nodiscard]] double total_s(std::string_view name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  [[nodiscard]] std::map<std::string, double> self_s_by_layer() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[layer_of(s.name)] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto) of
  /// the first `limit` spans; the self-time table covers all of them.
  void write_chrome(const std::string& path, std::size_t limit) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < std::min(limit, spans_.size()); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                    i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(),
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent);
      out << buf;
    }
    out << "]}\n";
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tr, const char* name) : tr_(tr), id_(tr.open(name)) {}
  ~SpanScope() { tr_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tr_;
  std::int32_t id_;
};

// ---------------------------------------------------------------------
// Per-layer metrics

/// Every per-layer metric every traced run reports, whatever the
/// workload; a layer the workload bypasses reads 0.  run.py checks this
/// list against BENCHMARK.json.
const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names{
      "sim.events", "sim.ns_per_event", "sim.heap_fallbacks", "sim.pending_at_start.max",
      "net.setup_s", "net.pkts_delivered", "net.drops",
      "tcp.flow_s.small", "tcp.flow_s.large", "mptcp.flow_s.small", "mptcp.flow_s.large",
      "tcp.ns_per_pkt", "mptcp.ns_per_pkt", "tcp.retransmits", "mptcp.reinjects",
      "mptcp.fallbacks",
      "app.replay_s.short", "app.replay_s.long", "emu.us_per_conn",
      "world.setup_s", "world.run_s.largest", "world.ns_per_event.largest",
      "world.ns_per_event.small", "world.events_per_s_vs_2k", "measure.merge_s",
      "measure.plan_s", "measure.execute_s.clean", "measure.execute_s.faulted",
      "store.key_s", "store.put_s", "store.encode_s", "store.lookup_s", "store.decode_s",
      "store.hit_ratio", "obs.merge_s", "measure.csv_s", "faults.applied",
      "faults.aborted_runs",
      "obs.overhead", "trace.wall_s", "trace.self_sum_frac",
      "self_s.bench", "self_s.net", "self_s.tcp", "self_s.mptcp", "self_s.emu",
      "self_s.app", "self_s.world", "self_s.measure", "self_s.store", "self_s.obs",
  };
  return names;
}

/// Sums over all traced passes; Workload::finish_layers turns them into
/// per-pass values and ratios.
using Layers = std::map<std::string, double>;

struct PassOut {
  std::uint64_t items = 0;       // flows / replays / users / campaign runs
  std::uint64_t incomplete = 0;  // items the model reports as not completed
  std::string digest;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Work a pass needs that a user pays once, not per pass (the warm
  /// campaign's store fill).  Not part of setup_s.
  virtual void prepare() {}
  /// One pass through the product entry points; appends the host
  /// seconds of every entry-point call to `call_s`.
  virtual PassOut pass(std::vector<double>& call_s) = 0;
  /// The same computation, with spans around every call into a layer.
  virtual PassOut traced_pass(Tracer& tr, Layers& m) = 0;
  /// Turn `m` (sums over `passes` traced passes) into reported values.
  virtual void finish_layers(Layers& m, double passes, const Tracer& tr) = 0;
};

void add_hub_counts(Layers& m, obs::ObsHub& hub) {
  const auto& reg = hub.metrics();
  const auto& id = hub.ids();
  m["net.pkts_delivered"] += static_cast<double>(reg.value(id.pkt_delivered));
  for (std::size_t c = 0; c < obs::kDropCauseCount; ++c) {
    m["net.drops"] += static_cast<double>(reg.value(id.drop[c]));
  }
  m["tcp.retransmits"] += static_cast<double>(reg.value(id.tcp_retransmits));
  m["mptcp.reinjects"] += static_cast<double>(reg.value(id.mptcp_reinjects));
  m["mptcp.fallbacks"] +=
      static_cast<double>(reg.value(id.mptcp_fallback_handshake) +
                          reg.value(id.mptcp_fallback_mid_flow) +
                          reg.value(id.mptcp_fallback_join_rejected));
}

std::vector<MpNetworkSetup> location_setups(std::uint64_t seed) {
  std::vector<MpNetworkSetup> out;
  const auto& locs = table2_locations();
  out.reserve(locs.size());
  for (std::size_t i = 0; i < locs.size(); ++i) {
    out.push_back(location_setup(locs[i], derive(seed, 0x7472616365ull /*trace*/, i)));
  }
  return out;
}

template <class T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = derive(seed, 0x73687566ull /*shuf*/, i) % i;
    std::swap(v[i - 1], v[j]);
  }
}

// ---------------------------------------------------------------------
// bulk: single transfers over the Table-2 locations.

class BulkWorkload final : public Workload {
 public:
  static constexpr std::int64_t kMinBytes = 1 * kKB;
  static constexpr std::int64_t kMaxBytes = 4000 * kKB;
  static constexpr std::int64_t kSmallMax = 100 * kKB;  // small/large split
  static constexpr std::size_t kSizesPerLocation = 5;

  // Every (config, direction) moves the same ladder of log-spaced sizes;
  // the seed deals them out to the locations and orders the flows.  So
  // the work of a pass, and its flow-time distribution, is the same for
  // every seed while the traces, pairings and order are not.
  explicit BulkWorkload(std::uint64_t seed)
      : nets_(location_setups(seed)), configs_(replay_configs()) {
    const std::size_t ladder = nets_.size() * kSizesPerLocation;
    for (std::size_t c = 0; c < configs_.size(); ++c) {
      for (const Direction dir : {Direction::kDownload, Direction::kUpload}) {
        std::vector<std::size_t> net(ladder);
        for (std::size_t j = 0; j < ladder; ++j) net[j] = j % nets_.size();
        shuffle(net, derive(seed, 0x6465616cull /*deal*/, flows_.size()));
        for (std::size_t j = 0; j < ladder; ++j) {
          const double frac = (static_cast<double>(j) + 0.5) / static_cast<double>(ladder);
          const double lg = std::log(static_cast<double>(kMinBytes)) +
                            frac * std::log(static_cast<double>(kMaxBytes) / kMinBytes);
          flows_.push_back(Flow{net[j], c, dir, std::llround(std::exp(lg))});
        }
      }
    }
    shuffle(flows_, seed);
  }

  PassOut pass(std::vector<double>& call_s) override {
    PassOut out;
    Digest d;
    for (const Flow& f : flows_) {
      // A call is a flow on a fresh Simulator, as the library prescribes.
      const auto t0 = Clock::now();
      TransportFlowResult r;
      {
        Simulator sim;
        r = run_transport_flow(sim, nets_[f.net], configs_[f.config], f.bytes, f.dir);
      }
      call_s.push_back(since(t0));
      fold(d, out, f, r);
    }
    out.digest = d.hex();
    return out;
  }

  PassOut traced_pass(Tracer& tr, Layers& m) override {
    PassOut out;
    Digest d;
    for (const Flow& f : flows_) {
      const bool mp = configs_[f.config].kind == TransportKind::kMptcp;
      const bool small = f.bytes <= kSmallMax;
      const char* name = mp ? (small ? "mptcp.flow.small" : "mptcp.flow.large")
                            : (small ? "tcp.flow.small" : "tcp.flow.large");
      obs::ObsHub hub;  // outlives the simulator that points at it
      Simulator sim;
      sim.set_obs(&hub);
      TransportFlowResult r;
      {
        SpanScope s(tr, name);
        r = run_transport_flow(sim, nets_[f.net], configs_[f.config], f.bytes, f.dir);
      }
      fold(d, out, f, r);
      m["sim.events"] += static_cast<double>(sim.events_fired());
      const double pkts = static_cast<double>(hub.metrics().value(hub.ids().pkt_delivered));
      m[mp ? "mptcp.pkts" : "tcp.pkts"] += pkts;
      add_hub_counts(m, hub);
    }
    out.digest = d.hex();
    return out;
  }

  void finish_layers(Layers& m, double passes, const Tracer& tr) override {
    const double tcp_s = tr.total_s("tcp.flow.small") + tr.total_s("tcp.flow.large");
    const double mp_s = tr.total_s("mptcp.flow.small") + tr.total_s("mptcp.flow.large");
    m["tcp.flow_s.small"] = tr.total_s("tcp.flow.small") / passes;
    m["tcp.flow_s.large"] = tr.total_s("tcp.flow.large") / passes;
    m["mptcp.flow_s.small"] = tr.total_s("mptcp.flow.small") / passes;
    m["mptcp.flow_s.large"] = tr.total_s("mptcp.flow.large") / passes;
    m["tcp.ns_per_pkt"] = m["tcp.pkts"] > 0 ? tcp_s * 1e9 / m["tcp.pkts"] : 0.0;
    m["mptcp.ns_per_pkt"] = m["mptcp.pkts"] > 0 ? mp_s * 1e9 / m["mptcp.pkts"] : 0.0;
    m["sim.ns_per_event"] = m["sim.events"] > 0 ? (tcp_s + mp_s) * 1e9 / m["sim.events"] : 0.0;
    m.erase("tcp.pkts");
    m.erase("mptcp.pkts");
  }

 private:
  struct Flow {
    std::size_t net;
    std::size_t config;
    Direction dir;
    std::int64_t bytes;
  };

  static void fold(Digest& d, PassOut& out, const Flow& f, const TransportFlowResult& r) {
    ++out.items;
    if (!r.completed) ++out.incomplete;
    // The sweep point of this flow.
    d.u64(static_cast<std::uint64_t>(f.bytes));
    d.f64(r.throughput_mbps);
    d.u64(static_cast<std::uint64_t>(r.completion_time.usec()));
    d.u64(r.completed ? 1 : 0);
  }

  std::vector<MpNetworkSetup> nets_;
  std::vector<TransportConfig> configs_;
  std::vector<Flow> flows_;
};

// ---------------------------------------------------------------------
// replay: the six Figure-17 app patterns over every location and config.

class ReplayWorkload final : public Workload {
 public:
  // Every location replays its own draw of the six patterns, so a pass
  // (and its tail) covers 20 draws of each app rather than one.
  explicit ReplayWorkload(std::uint64_t seed)
      : nets_(location_setups(seed)), configs_(replay_configs()) {
    for (std::size_t l = 0; l < nets_.size(); ++l) {
      const std::size_t first = patterns_.size();
      for (AppPattern& p : figure17_patterns(derive(seed, 0x70617474ull /*patt*/, l))) {
        patterns_.push_back(std::move(p));
      }
      for (std::size_t a = first; a < patterns_.size(); ++a) {
        for (std::size_t c = 0; c < configs_.size(); ++c) jobs_.push_back(Job{a, l, c});
      }
    }
    shuffle(jobs_, seed);
  }

  PassOut pass(std::vector<double>& call_s) override {
    PassOut out;
    Digest d;
    for (const Job& j : jobs_) {
      const auto t0 = Clock::now();
      const AppReplayResult r = replay_app(patterns_[j.pattern], nets_[j.net], configs_[j.config]);
      call_s.push_back(since(t0));
      fold(d, out, r);
    }
    out.digest = d.hex();
    return out;
  }

  // replay_app rebuilt from its public parts (MpShell, HttpConnectionSim)
  // so the shell, the connections and the simulation get their own spans.
  PassOut traced_pass(Tracer& tr, Layers& m) override {
    PassOut out;
    Digest d;
    const Duration timeout = sec(180);
    for (const Job& j : jobs_) {
      const AppPattern& pattern = patterns_[j.pattern];
      const bool is_long = classify(pattern) == AppClass::kLongFlowDominated;
      SpanScope whole(tr, is_long ? "app.replay.long" : "app.replay.short");
      AppReplayResult result;
      obs::ObsHub hub;  // outlives the simulator that points at it
      Simulator sim;
      sim.set_obs(&hub);
      std::optional<MpShell> shell;
      {
        SpanScope s(tr, "emu.shell");
        shell.emplace(sim, nets_[j.net]);
      }
      std::vector<std::unique_ptr<HttpConnectionSim>> conns;
      std::size_t completed = 0;
      {
        SpanScope s(tr, "emu.connect");
        conns.reserve(pattern.flows.size());
        for (std::size_t i = 0; i < pattern.flows.size(); ++i) {
          const AppFlow& flow = pattern.flows[i];
          auto conn = std::make_unique<HttpConnectionSim>(*shell, configs_[j.config], i + 1,
                                                          flow.exchanges);
          conn->on_complete = [&completed] { ++completed; };
          conn->start(TimePoint{flow.start_offset.usec()});
          conns.push_back(std::move(conn));
        }
      }
      const TimePoint deadline{timeout.usec()};
      {
        SpanScope s(tr, "app.run");
        while (completed < conns.size() && sim.now() < deadline) {
          if (!sim.step()) break;
        }
      }
      TimePoint first_start = TimePoint::max();
      TimePoint last_end{0};
      for (const auto& conn : conns) {
        const TimePoint end = conn->complete() ? conn->completed_at() : deadline;
        result.flows.push_back(FlowReplayOutcome{conn->complete(),
                                                 conn->started_at() - TimePoint{0},
                                                 end - TimePoint{0}});
        first_start = std::min(first_start, conn->started_at());
        last_end = std::max(last_end, end);
      }
      result.all_complete = completed == conns.size();
      result.response_time_s = (last_end - first_start).seconds();
      fold(d, out, result);
      m["sim.events"] += static_cast<double>(sim.events_fired());
      m["emu.conns"] += static_cast<double>(pattern.flow_count());
      add_hub_counts(m, hub);
      conns.clear();  // before the shell they point at
      shell.reset();
    }
    out.digest = d.hex();
    return out;
  }

  void finish_layers(Layers& m, double passes, const Tracer& tr) override {
    const double short_s = tr.total_s("app.replay.short");
    const double long_s = tr.total_s("app.replay.long");
    m["app.replay_s.short"] = short_s / passes;
    m["app.replay_s.long"] = long_s / passes;
    m["emu.us_per_conn"] = m["emu.conns"] > 0 ? (short_s + long_s) * 1e6 / m["emu.conns"] : 0.0;
    m["sim.ns_per_event"] =
        m["sim.events"] > 0 ? tr.total_s("app.run") * 1e9 / m["sim.events"] : 0.0;
    m.erase("emu.conns");
  }

 private:
  struct Job {
    std::size_t pattern;
    std::size_t net;
    std::size_t config;
  };

  static void fold(Digest& d, PassOut& out, const AppReplayResult& r) {
    ++out.items;
    if (!r.all_complete) ++out.incomplete;
    d.f64(r.response_time_s);
    d.u64(r.all_complete ? 1 : 0);
    for (const FlowReplayOutcome& f : r.flows) {
      d.u64(f.complete ? 1 : 0);
      d.u64(static_cast<std::uint64_t>(f.start.usec()));
      d.u64(static_cast<std::uint64_t>(f.end.usec()));
    }
  }

  std::vector<MpNetworkSetup> nets_;
  std::vector<AppPattern> patterns_;
  std::vector<TransportConfig> configs_;
  std::vector<Job> jobs_;
};

// ---------------------------------------------------------------------
// world: fluid users contending for shared cells, past the wheel's
// cache cliff.

class WorldWorkload final : public Workload {
 public:
  /// On the slow side of the scale curve: the largest cluster's working
  /// set outgrows the cache, so events/s fall below the 2k-user rate.
  static constexpr std::uint64_t kUsers = 40'000;
  /// The fast side of the curve, and the size of the golden reference.
  static constexpr std::uint64_t kReferenceUsers = 2'000;
  static constexpr int kSmallCluster = 1'000;

  WorldWorkload(std::uint64_t seed, std::uint64_t users) : world_(table1_world()), users_(users) {
    opt_.incomplete_probability = 0.08;  // the paper's incomplete-run share
    // An eighth of the default transfer over an eighth of the default
    // arrival window: as many users at once per venue, so the same
    // working set, in an eighth of the events.  A call then lasts about
    // a second and a run holds many of them.
    opt_.transfer_bytes = 125'000;
    opt_.arrival_window_s = 7.5;
    opt_.seed = derive(seed, 0x776f726cull /*worl*/);
    opt_.parallelism = 0;
    // What run_world does before its first event, which is this
    // workload's set-up: split the users and draw every user's plan into
    // one ClusterWorld per cluster.  run_world repeats it on every call.
    const std::vector<int> counts = world::split_users(world_, users_);
    for (std::size_t i = 0; i < world_.size(); ++i) {
      Simulator sim;
      const world::ClusterWorld cluster(sim, world_[i], counts[i], opt_);
    }
  }

  PassOut pass(std::vector<double>& call_s) override {
    const auto t0 = Clock::now();
    const world::WorldResult r = world::run_world(world_, users_, opt_);
    std::ostringstream table;
    r.stats.table1().print(table);
    call_s.push_back(since(t0));
    last_events_ = r.events_fired;
    return fold(r.stats, table.str());
  }

  // run_world rebuilt from split_users, one ClusterWorld per cluster,
  // run_until_idle, and the streaming merge.
  PassOut traced_pass(Tracer& tr, Layers& m) override {
    std::vector<int> counts;
    {
      SpanScope s(tr, "world.split");
      counts = world::split_users(world_, users_);
    }
    const auto largest = static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    StreamingRunStats stats(world_);
    std::vector<double> run_s(world_.size(), 0.0);
    std::vector<double> events(world_.size(), 0.0);
    for (std::size_t i = 0; i < world_.size(); ++i) {
      SpanScope cluster_span(tr, "world.cluster");
      // No ObsHub here: every venue registers its cells' metrics, and a
      // cluster over ~1.7k users exhausts the registry's 256 slots.
      Simulator sim;
      std::optional<world::ClusterWorld> cluster;
      {
        SpanScope s(tr, "world.setup");
        cluster.emplace(sim, world_[i], counts[i], opt_);
      }
      if (i == largest) {
        m["sim.pending_at_start.max"] = std::max(m["sim.pending_at_start.max"],
                                                 static_cast<double>(sim.pending_events()));
      }
      const auto t0 = Clock::now();
      {
        SpanScope s(tr, i == largest ? "world.run.largest" : "world.run");
        sim.run_until_idle();
      }
      run_s[i] = since(t0);
      events[i] = static_cast<double>(sim.events_fired());
      const StreamingClusterStats shard = cluster->take_stats();
      {
        SpanScope s(tr, "measure.merge");
        stats.cluster(i).merge_from(shard);
      }
    }
    // Clusters under kSmallCluster users fit in cache; with none that
    // small, the smallest cluster stands in.
    std::vector<std::size_t> small;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] < kSmallCluster) small.push_back(i);
    }
    if (small.empty()) {
      small.push_back(static_cast<std::size_t>(
          std::min_element(counts.begin(), counts.end()) - counts.begin()));
    }
    for (const std::size_t i : small) {
      m["world.small.s"] += run_s[i];
      m["world.small.events"] += events[i];
    }
    for (std::size_t i = 0; i < world_.size(); ++i) m["sim.events"] += events[i];
    m["world.largest.events"] += events[largest];
    std::string table;
    {
      SpanScope s(tr, "measure.table1");
      std::ostringstream os;
      stats.table1().print(os);
      table = os.str();
    }
    return fold(stats, table);
  }

  void finish_layers(Layers& m, double passes, const Tracer& tr) override {
    const double run_s = tr.total_s("world.run") + tr.total_s("world.run.largest");
    const double largest_s = tr.total_s("world.run.largest");
    m["world.setup_s"] = tr.total_s("world.setup") / passes;
    m["world.run_s.largest"] = largest_s / passes;
    m["world.ns_per_event.largest"] =
        m["world.largest.events"] > 0 ? largest_s * 1e9 / m["world.largest.events"] : 0.0;
    m["world.ns_per_event.small"] =
        m["world.small.events"] > 0 ? m["world.small.s"] * 1e9 / m["world.small.events"] : 0.0;
    m["measure.merge_s"] = (tr.total_s("measure.merge") + tr.total_s("measure.table1")) / passes;
    m["sim.ns_per_event"] = m["sim.events"] > 0 ? run_s * 1e9 / m["sim.events"] : 0.0;
    m.erase("world.largest.events");
    m.erase("world.small.s");
    m.erase("world.small.events");
  }

  [[nodiscard]] std::uint64_t last_events() const { return last_events_; }

 private:
  PassOut fold(const StreamingRunStats& stats, const std::string& table) const {
    PassOut out;
    Digest d;
    d.str(stats.digest());
    d.str(table);
    for (std::size_t i = 0; i < stats.size(); ++i) {
      out.items += stats.cluster(i).users_started;
      out.incomplete += stats.cluster(i).users_started - stats.cluster(i).users_completed;
    }
    out.digest = d.hex();
    return out;
  }

  std::vector<ClusterSpec> world_;
  std::uint64_t users_;
  world::WorldOptions opt_;
  std::uint64_t last_events_ = 0;
};

// ---------------------------------------------------------------------
// campaign: the Table-1 measurement campaign with faults and middleboxes
// against a local RunStore; cold (every run executes and is put) or warm
// (every run is a store hit).

class CampaignWorkload final : public Workload {
 public:
  static constexpr double kRunScale = 0.1;

  CampaignWorkload(std::uint64_t seed, bool warm, std::string workdir)
      : world_(table1_world()), warm_(warm), workdir_(std::move(workdir)) {
    opt_.run_scale = kRunScale;
    opt_.fault_probability = 0.2;
    opt_.middlebox_strip_probability = 0.3;
    opt_.seed = derive(seed, 0x63616d70ull /*camp*/);
    opt_.parallelism = 0;
    // Set-up is the plan phase, which run_campaign repeats on every call.
    // The empty store is made in prepare(): its file-system calls vary
    // too much from one run to the next to time as set-up.
    (void)plan_campaign(world_, opt_);
  }
  ~CampaignWorkload() override { drop_store(); }
  CampaignWorkload(const CampaignWorkload&) = delete;
  CampaignWorkload& operator=(const CampaignWorkload&) = delete;

  void prepare() override {
    fresh_store();
    if (!warm_) return;
    std::vector<double> unused;
    fill_digest_ = product_pass(unused).digest;
  }

  PassOut pass(std::vector<double>& call_s) override {
    if (!warm_ && used_) fresh_store();
    used_ = true;
    PassOut out = product_pass(call_s);
    check_warm(out);
    return out;
  }

  // run_campaign's store path rebuilt from plan_campaign, scenario_key,
  // lookup_many, parse_run_record / execute_run, serialize_run_record
  // and put, followed by the merged metrics and the CSV.
  PassOut traced_pass(Tracer& tr, Layers& m) override {
    if (!warm_ && used_) fresh_store();
    used_ = true;
    SpanScope whole(tr, "measure.campaign");
    const std::uint64_t events0 = Simulator::process_events_fired();
    std::vector<RunPlan> plans;
    {
      SpanScope s(tr, "measure.plan");
      plans = plan_campaign(world_, opt_);
    }
    std::vector<store::ScenarioKey> keys(plans.size());
    {
      SpanScope s(tr, "store.key");
      for (std::size_t i = 0; i < plans.size(); ++i) keys[i] = scenario_key(plans[i], opt_);
    }
    std::vector<std::optional<std::string>> blobs;
    {
      SpanScope s(tr, "store.lookup");
      blobs = store_->lookup_many(keys);
    }
    std::vector<RunRecord> records(plans.size());
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (blobs[i]) {
        SpanScope s(tr, "store.decode");
        try {
          records[i] = parse_run_record(*blobs[i]);
          m["store.hits"] += 1;
          continue;
        } catch (const std::exception&) {
          // An undecodable blob is a miss, as in run_campaign.
        }
      }
      missing.push_back(i);
    }
    m["store.lookups"] += static_cast<double>(plans.size());
    std::vector<RunRecord> fresh;
    fresh.reserve(missing.size());
    for (const std::size_t i : missing) {
      SpanScope s(tr, plans[i].has_faults ? "measure.execute.faulted" : "measure.execute.clean");
      fresh.push_back(execute_run(plans[i], opt_));
    }
    for (std::size_t j = 0; j < missing.size(); ++j) {
      std::string blob;
      {
        SpanScope s(tr, "store.encode");
        blob = serialize_run_record(fresh[j]);
      }
      {
        SpanScope s(tr, "store.put");
        store_->put(keys[missing[j]], blob);
      }
      records[missing[j]] = std::move(fresh[j]);
    }
    obs::MetricsSnapshot merged;
    {
      SpanScope s(tr, "obs.merge");
      merged = merge_run_metrics(records);
    }
    std::string csv;
    {
      SpanScope s(tr, "measure.csv");
      csv = to_csv(records).str();
    }
    m["net.pkts_delivered"] += static_cast<double>(merged.value_of("net.pkt_delivered"));
    m["net.drops"] += static_cast<double>(merged.sum_with_prefix("drop."));
    m["tcp.retransmits"] += static_cast<double>(merged.value_of("tcp.retransmits"));
    m["mptcp.reinjects"] += static_cast<double>(merged.value_of("mptcp.reinjected_ranges"));
    m["mptcp.fallbacks"] += static_cast<double>(merged.sum_with_prefix("mptcp.fallback."));
    m["sim.events"] += static_cast<double>(Simulator::process_events_fired() - events0);
    m["faults.applied"] += static_cast<double>(merged.value_of("fault.applied"));
    PassOut out = fold(records, merged, csv);
    m["faults.aborted_runs"] += static_cast<double>(out.incomplete);
    check_warm(out);
    return out;
  }

  void finish_layers(Layers& m, double passes, const Tracer& tr) override {
    const double exec_s =
        tr.total_s("measure.execute.clean") + tr.total_s("measure.execute.faulted");
    m["measure.plan_s"] = tr.total_s("measure.plan") / passes;
    m["measure.execute_s.clean"] = tr.total_s("measure.execute.clean") / passes;
    m["measure.execute_s.faulted"] = tr.total_s("measure.execute.faulted") / passes;
    m["store.key_s"] = tr.total_s("store.key") / passes;
    m["store.put_s"] = tr.total_s("store.put") / passes;
    m["store.encode_s"] = tr.total_s("store.encode") / passes;
    m["store.lookup_s"] = tr.total_s("store.lookup") / passes;
    m["store.decode_s"] = tr.total_s("store.decode") / passes;
    m["store.hit_ratio"] = m["store.lookups"] > 0 ? m["store.hits"] / m["store.lookups"] : 0.0;
    m["obs.merge_s"] = tr.total_s("obs.merge") / passes;
    m["measure.csv_s"] = tr.total_s("measure.csv") / passes;
    m["sim.ns_per_event"] = m["sim.events"] > 0 ? exec_s * 1e9 / m["sim.events"] : 0.0;
    m.erase("store.hits");
    m.erase("store.lookups");
  }

 private:
  PassOut product_pass(std::vector<double>& call_s) {
    const auto t0 = Clock::now();
    const std::vector<RunRecord> records = run_campaign(world_, opt_);
    const obs::MetricsSnapshot merged = merge_run_metrics(records);
    const std::string csv = to_csv(records).str();
    call_s.push_back(since(t0));
    return fold(records, merged, csv);
  }

  static PassOut fold(const std::vector<RunRecord>& records, const obs::MetricsSnapshot& merged,
                      const std::string& csv) {
    PassOut out;
    Digest d;
    d.str(csv);
    d.u64(static_cast<std::uint64_t>(merged.value_of("fault.applied")));
    for (const RunRecord& r : records) {
      ++out.items;
      if (r.failed) ++out.incomplete;  // aborted under an injected fault
    }
    out.digest = d.hex();
    return out;
  }

  /// A warm pass must reproduce the cold pass's CSV byte for byte.
  void check_warm(PassOut& out) const {
    if (warm_ && out.digest != fill_digest_) out.digest = "warm-differs-from-cold:" + out.digest;
  }

  void fresh_store() {
    drop_store();
    static int counter = 0;
    dir_ = workdir_ + "/store-" + std::to_string(::getpid()) + "-" + std::to_string(counter++);
    std::filesystem::remove_all(dir_);
    store_ = std::make_unique<store::RunStore>(dir_);
    opt_.store = store_.get();
  }
  void drop_store() {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

  std::vector<ClusterSpec> world_;
  bool warm_;
  std::string workdir_;
  CampaignOptions opt_;
  std::string dir_;
  std::unique_ptr<store::RunStore> store_;
  std::string fill_digest_;
  bool used_ = false;
};

// ---------------------------------------------------------------------
// Command line and main loop

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".";
  std::string trace_out;
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"bulk", "replay", "world", "campaign_cold",
                                              "campaign_warm"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Args& a, std::uint64_t seed, bool reference) {
  if (a.workload == "bulk") return std::make_unique<BulkWorkload>(seed);
  if (a.workload == "replay") return std::make_unique<ReplayWorkload>(seed);
  if (a.workload == "world") {
    return std::make_unique<WorldWorkload>(
        seed, reference ? WorldWorkload::kReferenceUsers : WorldWorkload::kUsers);
  }
  return std::make_unique<CampaignWorkload>(seed, a.workload == "campaign_warm", a.workdir);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return -1.0;
}

/// Median (NaN of nothing).
double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (NaN of nothing).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------
// Host speed
//
// The hosts this runs on share each core's caches with other tenants.
// For tens of seconds at a time the same pass takes up to 1.7x longer,
// while a register-only spin loop does not slow at all.  A fixed
// heap-and-table kernel, which misses in cache the way the simulator
// does, slows with it (its ratio to a bulk pass held within +-9% while
// the pass itself moved +-26%).  So every end-to-end time is reported
// at the kernel's undisturbed speed: measured time x kNominalS / the
// kernel's time measured next to it.

class HostProbe {
 public:
  /// The kernel's time on an undisturbed core of the reference host
  /// (2.1 GHz Xeon, KVM guest).  A constant, so values stay in seconds.
  static constexpr double kNominalS = 3.2e-3;

  /// Median of five runs of the kernel.
  double sample_s() {
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) t.push_back(kernel_s());
    return median(t);
  }
  /// Factor that takes a time measured at `probe_s` to nominal speed.
  static double scale(double probe_s) { return kNominalS / probe_s; }

 private:
  double kernel_s() {
    const auto t0 = Clock::now();
    std::priority_queue<std::uint64_t> heap;
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t acc = 0;
    for (int i = 0; i < 60'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.push(x);
      if (heap.size() > 8192) {
        acc += heap.top();
        heap.pop();
      }
      acc += table_[(x >> 20) & (table_.size() - 1)];
      if (acc & 1) acc += x;
    }
    sink_ += acc;
    return since(t0);
  }

  std::vector<std::uint32_t> table_ = [] {
    std::vector<std::uint32_t> t(1 << 18);
    for (std::uint32_t i = 0; i < t.size(); ++i) t[i] = i * 2654435761u;
    return t;
  }();
  std::uint64_t sink_ = 0;
};

/// Samples of the workload's set-up time at nominal host speed.  Each
/// sample repeats the set-up enough times to last >= 50 ms; samples are
/// taken before, between and after the passes.
class SetupTimer {
 public:
  SetupTimer(HostProbe& probe, std::function<void()> setup_once)
      : probe_(probe), setup_once_(std::move(setup_once)) {
    const auto t0 = Clock::now();
    setup_once_();
    reps_ = std::max(1, static_cast<int>(std::ceil(0.05 / std::max(since(t0), 1e-9))));
  }
  void sample() {
    const double scale = HostProbe::scale(probe_.sample_s());
    const auto t0 = Clock::now();
    for (int r = 0; r < reps_; ++r) setup_once_();
    samples_.push_back(since(t0) / reps_ * scale);
  }
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  HostProbe& probe_;
  std::function<void()> setup_once_;
  int reps_ = 1;
  std::vector<double> samples_;
};

/// Spin-probe the cores this process actually gets: the same spin on
/// 1, 2 and 4 threads; effective cores = max(t * wall_1 / wall_t).
double effective_cores() {
  auto spin = [](std::uint64_t iters) {
    std::uint64_t x = 88172645463325252ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  auto wall = [&](int threads, std::uint64_t iters) {
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(spin, iters);
    for (auto& t : pool) t.join();
    return since(t0);
  };
  std::uint64_t iters = 1 << 20;
  while (wall(1, iters) < 0.03) iters *= 2;
  const double w1 = wall(1, iters);
  double best = 1.0;
  for (const int t : {2, 4}) best = std::max(best, t * w1 / wall(t, iters));
  return best;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit_map(std::ostream& os, const char* key, const std::map<std::string, double>& m) {
  os << "\"" << key << "\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << json_num(v);
    first = false;
  }
  os << "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mn_perfbench: " << why
            << "\nusage: mn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " --workdir <dir> [--trace-out <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--workdir") {
        a.workdir = v;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) usage("bad --seconds or --trace");
  return a;
}

struct LoopResult {
  std::vector<double> pass_s;                  // wall time of every pass
  std::vector<std::vector<double>> pass_call_s;  // every call of every pass
  std::vector<double> pass_scale;              // HostProbe::scale next to each pass
  std::vector<std::uint64_t> pass_items;       // items of every pass
  std::uint64_t items = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t failed = 0;  // items of passes that threw or disagreed
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::string digest;  // of the first pass

  /// Every call of every pass at nominal host speed.
  [[nodiscard]] std::vector<double> nominal_call_s() const {
    std::vector<double> out;
    for (std::size_t p = 0; p < pass_call_s.size(); ++p) {
      for (const double c : pass_call_s[p]) out.push_back(c * pass_scale[p]);
    }
    return out;
  }
  [[nodiscard]] double nominal_wall_s() const {
    double t = 0.0;
    for (std::size_t p = 0; p < pass_s.size(); ++p) t += pass_s[p] * pass_scale[p];
    return t;
  }
  /// Median over passes of items per second at nominal host speed: a
  /// pass caught in a slow spell the probe missed moves it less than it
  /// moves the total.
  [[nodiscard]] double nominal_items_per_s() const {
    std::vector<double> rates;
    for (std::size_t p = 0; p < pass_s.size(); ++p) {
      rates.push_back(static_cast<double>(pass_items[p]) / (pass_s[p] * pass_scale[p]));
    }
    return median(rates);
  }
};

/// Closed loop of whole untraced passes until their time adds up to
/// `seconds`.  Between passes, the host probe runs once 0.25 s have gone
/// by since it last ran, and `between` once 1 s has; neither is part of
/// any pass's time.  A pass is scaled by the median of the probes taken
/// from 1 s before it starts to 1 s after it ends (or by the nearest
/// probe): the host's slow spells last tens of seconds, a probe's own
/// noise does not.
LoopResult untraced_loop(Workload& w, HostProbe& probe, double seconds,
                         const std::function<void()>& between) {
  LoopResult r;
  const auto start = Clock::now();
  std::vector<std::pair<double, double>> probes{{0.0, probe.sample_s()}};  // (at, s)
  std::vector<std::pair<double, double>> spans;  // (start, end) of each pass
  auto last_probe = Clock::now();
  auto last_between = Clock::now();
  const std::uint64_t e0 = Simulator::process_events_fired();
  do {
    std::vector<double> call_s;
    try {
      const auto t0 = Clock::now();
      const PassOut p = w.pass(call_s);
      r.pass_s.push_back(since(t0));
      spans.emplace_back(since(start) - r.pass_s.back(), since(start));
      if (r.items == 0) r.digest = p.digest;
      r.items += p.items;
      r.pass_items.push_back(p.items);
      r.incomplete += p.incomplete;
      if (p.digest != r.digest) r.failed += p.items;
    } catch (const std::exception& e) {
      std::cerr << "mn_perfbench: pass threw: " << e.what() << "\n";
      r.failed += 1;
      r.items += 1;
      r.digest = "threw";
      break;
    }
    r.pass_call_s.push_back(std::move(call_s));
    r.wall_s += r.pass_s.back();
    if (since(last_probe) >= 0.25) {
      probes.emplace_back(since(start), probe.sample_s());
      last_probe = Clock::now();
    }
    if (since(last_between) >= 1.0) {
      between();
      last_between = Clock::now();
    }
  } while (r.wall_s < seconds);
  r.events = Simulator::process_events_fired() - e0;
  probes.emplace_back(since(start), probe.sample_s());
  for (const auto& [from, to] : spans) {
    std::vector<double> near;
    double nearest = probes.front().second;
    double nearest_gap = std::numeric_limits<double>::infinity();
    for (const auto& [at, s] : probes) {
      if (at >= from - 1.0 && at <= to + 1.0) near.push_back(s);
      const double gap = std::min(std::abs(at - from), std::abs(at - to));
      if (gap < nearest_gap) {
        nearest_gap = gap;
        nearest = s;
      }
    }
    r.pass_scale.push_back(HostProbe::scale(near.empty() ? nearest : median(near)));
  }
  return r;
}

int run(const Args& args) {
  bool refuse = false;
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(MN_PERFBENCH_SANITIZED)
  refuse = true;
#endif
  if (refuse || std::string(MN_PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "mn_perfbench: refusing to time a " << MN_PERFBENCH_BUILD_TYPE
              << " build with assertions or sanitizers; build with "
                 "-DCMAKE_BUILD_TYPE=Release and no -fsanitize flags\n";
    return 3;
  }
  // A stray knob must not change a workload: the library reads these
  // from the environment (thread counts, dispatch mode, bench scaling).
  for (const char* knob : {"MN_THREADS", "MN_RUN_SCALE", "MN_SCALAR_DISPATCH", "MN_BENCH_REPS",
                           "MN_BENCH_JSON", "MN_WORLD_USERS"}) {
    ::unsetenv(knob);
  }
  std::filesystem::create_directories(args.workdir);

  // Set-up: input generation before the first simulated event; the
  // median of its samples is setup_s.
  HostProbe probe;
  SetupTimer setup(probe, [&] { (void)make_workload(args, args.seed, /*reference=*/false); });
  for (int i = 0; i < 3; ++i) setup.sample();
  std::unique_ptr<Workload> w = make_workload(args, args.seed, false);
  w->prepare();

  std::map<std::string, double> metrics;
  std::map<std::string, double> extra;  // for run.py --all
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;

  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const LoopResult loop = untraced_loop(*w, probe, loop_seconds, [&] { setup.sample(); });
  const double rss = peak_rss_mib();
  for (int i = 0; i < 2; ++i) setup.sample();
  attempted += loop.items;
  failed += loop.failed;
  digest = loop.digest;
  if (loop.failed) problems.push_back("a pass disagreed with the first pass or threw");

  const std::vector<double> call_s = loop.nominal_call_s();
  const double items_per_s = loop.nominal_items_per_s();
  const double completed_frac =
      static_cast<double>(loop.items - std::min(loop.items, loop.incomplete + loop.failed)) /
      static_cast<double>(loop.items);

  if (args.trace == 0) {
    // p99 on bulk, whose largest flows are its tail; p90 elsewhere: on
    // replay the p99 of millisecond calls spread more between seeds, with
    // the host's preemptions, than the program does.  Either needs >= 10
    // calls beyond it: a run of fewer than 100 calls has no tail to
    // measure and repeats the median.
    const std::size_t n = call_s.size();
    const double tail_q =
        n >= 1000 && args.workload == "bulk" ? 0.99 : n >= 100 ? 0.90 : 0.50;
    metrics["setup_s"] = setup.median_s();
    metrics["items_per_s"] = items_per_s;
    metrics["call_host_ms.p50"] = percentile(call_s, 0.50) * 1e3;
    metrics["call_host_ms.tail"] = percentile(call_s, tail_q) * 1e3;
    metrics["peak_rss_mib"] = rss;
    metrics["completed_frac"] = completed_frac;

    extra["tail_quantile"] = tail_q;
    extra["sim_events_per_s"] = static_cast<double>(loop.events) / loop.nominal_wall_s();
    // The same throughput without the host-speed scaling.
    extra["raw_items_per_s"] = static_cast<double>(loop.items) / loop.wall_s;
  } else {
    // Traced passes for the other half of the time.
    Layers m;
    for (const std::string& n : layer_metric_names()) m[n] = 0.0;
    Tracer tr;
    std::uint64_t tpasses = 0;
    bool traced_differs = false;
    std::uint64_t traced_items = 0;
    const double probe_before_s = probe.sample_s();
    const auto t0 = Clock::now();
    {
      SpanScope root(tr, "bench.traced");
      do {
        try {
          const PassOut p = w->traced_pass(tr, m);
          traced_items += p.items;
          attempted += p.items;
          if (p.digest != digest) {
            failed += p.items;
            if (!traced_differs) {
              problems.push_back("traced digest " + p.digest + " != untraced " + digest);
            }
            traced_differs = true;
          }
        } catch (const std::exception& e) {
          ++attempted;
          ++failed;
          problems.push_back(std::string("traced pass threw: ") + e.what());
          ++tpasses;
          break;
        }
        ++tpasses;
      } while (since(t0) < args.seconds / 2);
    }
    const double traced_wall = since(t0);
    const double traced_scale = HostProbe::scale(0.5 * (probe_before_s + probe.sample_s()));
    const auto passes = static_cast<double>(tpasses);
    w->finish_layers(m, passes, tr);
    for (const char* k : {"sim.events", "net.pkts_delivered", "net.drops", "tcp.retransmits",
                          "mptcp.reinjects", "mptcp.fallbacks", "faults.applied",
                          "faults.aborted_runs"}) {
      m[k] /= passes;
    }
    if (args.workload == "bulk" || args.workload == "replay") {
      // Trace generation for the 20 locations, timed on its own.
      const auto ts = Clock::now();
      {
        SpanScope s(tr, "net.setup");
        (void)location_setups(args.seed);
      }
      m["net.setup_s"] = since(ts);
    }
    if (args.workload == "world") {
      // The same world at the fast end of the scale curve, same process,
      // both at nominal host speed.
      WorldWorkload small(args.seed, WorldWorkload::kReferenceUsers);
      std::vector<double> rates;
      for (int i = 0; i < 3; ++i) {
        const double scale = HostProbe::scale(probe.sample_s());
        std::vector<double> call;
        (void)small.pass(call);
        rates.push_back(static_cast<double>(small.last_events()) / (call.back() * scale));
      }
      const double big_rate = static_cast<double>(loop.events) / loop.nominal_wall_s();
      m["world.events_per_s_vs_2k"] = big_rate / median(rates);
    }
    const auto self = tr.self_s_by_layer();
    double self_sum = 0.0;
    for (const auto& [layer, s] : self) {
      self_sum += s;
      const std::string key = "self_s." + layer;
      if (!m.count(key)) problems.push_back("span layer '" + layer + "' has no self_s metric");
      m[key] = s;
    }
    const double root_s = traced_wall + m["net.setup_s"];
    m["trace.wall_s"] = traced_wall / passes;
    m["trace.self_sum_frac"] = root_s > 0 ? self_sum / root_s : 0.0;
    // Traced over untraced time per item, both at nominal host speed.
    m["obs.overhead"] = (traced_wall * traced_scale / static_cast<double>(traced_items)) /
                            (loop.nominal_wall_s() / static_cast<double>(loop.items)) -
                        1.0;
    m["sim.heap_fallbacks"] = static_cast<double>(inplace_function_heap_fallbacks());
    metrics = m;

    if (!args.trace_out.empty()) {
      std::filesystem::create_directories(args.trace_out);
      const std::string base =
          args.trace_out + "/" + args.workload + "-seed" + std::to_string(args.seed);
      tr.write_chrome(base + ".trace.json", 50'000);
      std::ofstream table(base + ".self.txt");
      table << "layer self time, " << args.workload << " seed " << args.seed << ", "
            << tpasses << " traced passes, wall " << traced_wall << " s\n";
      for (const auto& [layer, s] : self) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%-10s %12.6f s %6.2f%%\n", layer.c_str(), s,
                      root_s > 0 ? 100.0 * s / root_s : 0.0);
        table << buf;
      }
    }
  }

  // The heap-fallback floor: no event callback may escape its inline buffer.
  const std::uint64_t fallbacks = inplace_function_heap_fallbacks();
  if (fallbacks != 0) {
    problems.push_back("inplace_function heap fallbacks: " + std::to_string(fallbacks));
  }

  // The default seed's output, re-checked against its golden every run.
  std::string reference_digest = digest;
  if (args.seed != kDefaultSeed || args.workload == "world") {
    try {
      std::unique_ptr<Workload> ref = make_workload(args, kDefaultSeed, /*reference=*/true);
      ref->prepare();
      std::vector<double> unused;
      reference_digest = ref->pass(unused).digest;
    } catch (const std::exception& e) {
      reference_digest = std::string("threw: ") + e.what();
    }
  }

  const double cores = effective_cores();

  std::ostringstream os;
  os << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
     << ", \"trace\": " << args.trace << ", \"digest\": \"" << json_escape(digest)
     << "\", \"reference_digest\": \"" << json_escape(reference_digest)
     << "\", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"passes\": " << loop.pass_s.size() << ", \"calls\": " << call_s.size()
     << ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(problems[i]) << "\"";
  }
  os << "], \"pass_scale\": [";
  for (std::size_t i = 0; i < loop.pass_scale.size(); ++i) {
    os << (i ? ", " : "") << json_num(loop.pass_scale[i]);
  }
  os << "], \"pass_s\": [";
  for (std::size_t i = 0; i < loop.pass_s.size(); ++i) {
    os << (i ? ", " : "") << json_num(loop.pass_s[i]);
  }
  os << "], ";
  emit_map(os, "metrics", metrics);
  os << ", ";
  emit_map(os, "extra", extra);
  os << ", \"record\": {\"effective_cores\": " << json_num(cores) << ", \"compiler\": \"g++ "
     << json_escape(__VERSION__) << "\", \"build_type\": \"" << MN_PERFBENCH_BUILD_TYPE
     << "\", \"heap_fallbacks\": " << fallbacks << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "mn_perfbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
}
