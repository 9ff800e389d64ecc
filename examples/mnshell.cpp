// mnshell — a command-line front end to the emulation stack, in the
// spirit of Mahimahi's mm-link: generate delivery traces, inspect them,
// and run transfers over emulated multi-homed networks without writing
// any C++.
//
//   mnshell gen-trace --kind poisson --mbps 8 --seconds 4 --out lte.trace
//   mnshell show-trace lte.trace
//   mnshell run --wifi-trace wifi.trace --lte-trace lte.trace --bytes 1000000 --config mptcp-coupled-wifi
//   mnshell run --wifi-mbps 12 --lte-mbps 6 --bytes 1000000 --config all
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "core/experiment.hpp"
#include "net/trace_gen.hpp"
#include "util/units.hpp"

namespace {

using namespace mn;

[[noreturn]] void usage() {
  std::cerr <<
      "usage:\n"
      "  mnshell gen-trace --kind constant|poisson|twostate --mbps R\n"
      "          [--seconds S=4] [--seed N=1] --out FILE\n"
      "  mnshell show-trace FILE\n"
      "  mnshell run [--wifi-mbps R | --wifi-trace FILE]\n"
      "              [--lte-mbps R | --lte-trace FILE]\n"
      "              [--wifi-delay-ms D=10] [--lte-delay-ms D=30]\n"
      "              [--bytes N=1000000] [--upload]\n"
      "              [--config NAME|all]   (wifi-tcp, lte-tcp,\n"
      "               mptcp-coupled-wifi, mptcp-coupled-lte,\n"
      "               mptcp-decoupled-wifi, mptcp-decoupled-lte)\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int start,
                                               std::string* positional = nullptr) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (arg == "--upload") {
        flags["upload"] = "1";
      } else if (i + 1 < argc) {
        flags[arg.substr(2)] = argv[++i];
      } else {
        usage();
      }
    } else if (positional != nullptr && positional->empty()) {
      *positional = arg;
    } else {
      usage();
    }
  }
  return flags;
}

int cmd_gen_trace(const std::map<std::string, std::string>& flags) {
  const auto kind = flags.count("kind") ? flags.at("kind") : "constant";
  const double mbps = flags.count("mbps") ? std::stod(flags.at("mbps")) : 10.0;
  const double seconds = flags.count("seconds") ? std::stod(flags.at("seconds")) : 4.0;
  const auto seed =
      flags.count("seed") ? std::stoull(flags.at("seed")) : std::uint64_t{1};
  if (!flags.count("out")) usage();
  Rng rng{seed};
  const Duration period = secs_f(seconds);
  DeliveryTrace trace = [&] {
    if (kind == "constant") return constant_rate_trace(mbps, period);
    if (kind == "poisson") return poisson_trace(mbps, period, rng);
    if (kind == "twostate") {
      TwoStateSpec spec;
      spec.good_mbps = mbps * 1.4;
      spec.bad_mbps = std::max(0.3, mbps * 0.4);
      return two_state_trace(spec, period, rng);
    }
    usage();
  }();
  trace.save(flags.at("out"));
  std::cout << "wrote " << flags.at("out") << ": " << trace.opportunities_per_period()
            << " opportunities / " << trace.period().seconds() << " s (avg "
            << trace.average_rate_mbps() << " Mbit/s)\n";
  return 0;
}

int cmd_show_trace(const std::string& path) {
  const DeliveryTrace trace = DeliveryTrace::load(path);
  std::cout << path << ": period " << trace.period().seconds() << " s, "
            << trace.opportunities_per_period() << " opportunities, average "
            << trace.average_rate_mbps() << " Mbit/s\n";
  return 0;
}

LinkSpec link_from_flags(const std::map<std::string, std::string>& flags,
                         const std::string& prefix, double default_mbps,
                         int default_delay_ms) {
  LinkSpec s;
  if (flags.count(prefix + "-trace")) {
    s.trace = std::make_shared<DeliveryTrace>(
        DeliveryTrace::load(flags.at(prefix + "-trace")));
  } else {
    s.rate_mbps = flags.count(prefix + "-mbps") ? std::stod(flags.at(prefix + "-mbps"))
                                                : default_mbps;
  }
  s.one_way_delay = msec(flags.count(prefix + "-delay-ms")
                             ? std::stoll(flags.at(prefix + "-delay-ms"))
                             : default_delay_ms);
  s.queue_packets = prefix == "lte" ? 120 : 64;
  return s;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  const auto net = symmetric_setup(link_from_flags(flags, "wifi", 12.0, 10),
                                   link_from_flags(flags, "lte", 6.0, 30));
  const std::int64_t bytes =
      flags.count("bytes") ? std::stoll(flags.at("bytes")) : 1'000'000;
  const Direction dir =
      flags.count("upload") ? Direction::kUpload : Direction::kDownload;
  const std::string want = flags.count("config") ? flags.at("config") : "all";

  bool ran = false;
  for (const TransportConfig& config : replay_configs()) {
    std::string key = config.name();
    for (auto& c : key) c = static_cast<char>(std::tolower(c));
    if (want != "all" && want != key) continue;
    ran = true;
    Simulator sim;
    const auto r = run_transport_flow(sim, net, config, bytes, dir);
    std::cout << config.name() << ": ";
    if (r.completed) {
      std::cout << r.throughput_mbps << " Mbit/s (" << r.completion_time.seconds()
                << " s)\n";
    } else {
      std::cout << "did not complete\n";
    }
  }
  if (!ran) {
    std::cerr << "unknown --config " << want << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen-trace") return cmd_gen_trace(parse_flags(argc, argv, 2));
    if (cmd == "show-trace") {
      std::string path;
      parse_flags(argc, argv, 2, &path);
      if (path.empty()) usage();
      return cmd_show_trace(path);
    }
    if (cmd == "run") return cmd_run(parse_flags(argc, argv, 2));
  } catch (const std::exception& e) {
    std::cerr << "mnshell: " << e.what() << "\n";
    return 1;
  }
  usage();
}
