// Quickstart: emulate a multi-homed phone (WiFi + LTE), run a 1 MB
// download over single-path TCP on each network and over MPTCP, and
// compare throughputs.  Section 4 repeats the MPTCP run with the
// observability hub attached and exports a chrome://tracing timeline,
// a pcap capture, and a Prometheus metrics dump.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
// Artifacts (trace, pcap, result store) land in quickstart_out/, which
// is gitignored — delete the directory to start fresh.
#include <filesystem>
#include <iostream>

#include "core/experiment.hpp"
#include "emu/mpshell.hpp"
#include "emu/packet_log.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "store/run_store.hpp"

int main() {
  using namespace mn;

  // All on-disk artifacts go under one gitignored directory.
  std::filesystem::create_directories("quickstart_out");

  // 1. Describe the two access networks (fixed-rate links here; see
  //    net/trace_gen.hpp for Mahimahi-style trace-driven links).
  LinkSpec wifi;
  wifi.rate_mbps = 12.0;
  wifi.one_way_delay = msec(10);
  wifi.queue_packets = 64;

  LinkSpec lte;
  lte.rate_mbps = 8.0;
  lte.one_way_delay = msec(30);
  lte.queue_packets = 150;  // cellular buffers run deep

  const MpNetworkSetup net = symmetric_setup(wifi, lte);

  // 2. Run one 1 MB download per transport configuration.
  std::cout << "1 MB download over an emulated WiFi(12 Mbit/s) + LTE(8 Mbit/s) phone:\n";
  for (const TransportConfig& config : replay_configs()) {
    Simulator sim;  // fresh deterministic world per run
    const TransportFlowResult r =
        run_transport_flow(sim, net, config, 1'000'000, Direction::kDownload);
    std::cout << "  " << config.name() << ": "
              << (r.completed ? std::to_string(r.throughput_mbps).substr(0, 5) + " Mbit/s in " +
                                    std::to_string(r.completion_time.seconds()).substr(0, 5) + " s"
                              : "did not complete")
              << "\n";
  }

  // 3. The headline behaviour: MPTCP aggregates both links for long
  //    flows but cannot beat the best single path for short ones.
  std::cout << "\n10 KB download (short flow):\n";
  for (const TransportConfig& config :
       {TransportConfig::single_path(PathId::kWifi),
        TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled)}) {
    Simulator sim;
    const auto r = run_transport_flow(sim, net, config, 10'000, Direction::kDownload);
    std::cout << "  " << config.name() << ": completed in "
              << r.completion_time.seconds() << " s\n";
  }

  // 4. Observability: the same MPTCP download, instrumented.  The hub
  //    collects counters/histograms at every layer; the 4096-event
  //    flight ring feeds the chrome://tracing export, and PacketLog
  //    taps on both interfaces feed the pcap.
  {
    obs::ObsHub hub{1 << 12};
    Simulator sim;
    sim.set_obs(&hub);
    MpShell shell{sim, net};
    PacketLog log;
    log.set_capacity(4096);  // bounded: keeps the newest window
    shell.network().iface(PathId::kWifi).set_tap(log.tap_for("wifi"));
    shell.network().iface(PathId::kLte).set_tap(log.tap_for("lte"));
    HttpConnectionSim conn{shell, TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled),
                           1, {synthetic_exchange(300, 1'000'000)}};
    conn.start(TimePoint{0});
    sim.run_until(TimePoint{sec(30).usec()});

    const obs::MetricsSnapshot snap = hub.snapshot();
    std::cout << "\nInstrumented MPTCP download (see quickstart_out/"
                 "quickstart_trace.json, quickstart_out/quickstart.pcap):\n"
              << "  packets delivered: " << snap.value_of("net.pkt_delivered")
              << "  dropped: " << snap.sum_with_prefix("drop.")
              << "  retransmits: " << snap.value_of("tcp.retransmits") << "\n"
              << "  scheduler grants wifi/lte: "
              << snap.value_of("mptcp.sched_grants_sf0") << "/"
              << snap.value_of("mptcp.sched_grants_sf1") << "\n";
    obs::write_chrome_trace("quickstart_out/quickstart_trace.json",
                            hub.flight()->events());
    log.save_pcap("quickstart_out/quickstart.pcap");
    // Full dump, scrapeable format: std::cout << snap.prometheus_text();
  }

  // 5. The result store: memoize a flow-size sweep on disk.  The first
  //    sweep simulates every point and appends it to quickstart_store/;
  //    the second replays from cache without simulating anything.  Kill
  //    the process mid-sweep and rerun: completed points are kept and
  //    only the missing ones execute (crash-resume).  Inspect with
  //    ./build/tools/mn_store verify quickstart_out/quickstart_store
  {
    store::RunStore cache{"quickstart_out/quickstart_store"};
    SweepOptions sweep;
    sweep.store = &cache;
    const std::vector<std::int64_t> sizes{10'000, 100'000, 1'000'000};
    const TransportConfig config = TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled);
    std::cout << "\nFlow-size sweep through the result store"
                 " (quickstart_out/quickstart_store/):\n";
    for (int pass = 1; pass <= 2; ++pass) {
      const auto points = sweep_flow_sizes(net, config, sizes, sweep);
      const auto stats = cache.stats();
      std::cout << "  pass " << pass << ": " << points.size() << " points, "
                << stats.hits << " cache hit(s), " << stats.misses << " miss(es)\n";
    }
    cache.seal_active();
    // The same directory can back a fleet of workers over a socket —
    // store::remote::RemoteStore is a drop-in for the cache above:
    //   ./build/tools/mn_store serve quickstart_out/quickstart_store --socket /tmp/mn.sock &
    //   ./build/tools/mn_store ping /tmp/mn.sock
    //   ./build/tools/mn_store get /tmp/mn.sock <keyhex-from-dump>
    std::cout << "  (serve this store to a fleet: mn_store serve "
                 "quickstart_out/quickstart_store --socket /tmp/mn.sock)\n";
  }
  return 0;
}
