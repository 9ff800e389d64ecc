// Perf-trajectory driver: runs the engine-sensitive benches and appends
// one measurement record to a repo-level BENCH_<label>.json file, so
// every PR leaves a comparable before/after trail of engine throughput.
//
//   perf_trajectory --label pr3 --variant slab
//       [--bench-dir build/bench] [--out BENCH_pr3.json] [--scale 0.2]
//       [--reps N] [--macro-reps R] [--floor-from F [--floor-frac x]]
//
// What it measures:
//   - microbench (google-benchmark): per-benchmark real time in ns,
//     parsed from console output.  Run --reps times (default 3) at
//     --benchmark_min_time=0.10 and merged by per-benchmark MINIMUM —
//     on a shared box the mean tracks scheduler noise (observed 2x
//     swings within minutes at identical code), while the minimum
//     tracks the code.
//   - fig07_mptcp_vs_tcp: the full-figure macro workload, via the
//     MN_BENCH_JSON hook in bench/common.hpp ({wall_s, events,
//     events_per_s, allocs}); MN_BENCH_REPS=<macro-reps> (default 10)
//     repeats the workload in-process so steady-state throughput
//     dominates the record rather than exec/static-init/page-fault
//     cold start (~half the single-shot wall time at default scale)
//   - chaos_soak / energy_pareto at MN_RUN_SCALE=<scale>: the
//     fault-heavy workloads, same hook
//   - table1_at_scale at MN_WORLD_USERS=2000: the shared-cell world
//     (one event per cell service tick, streaming aggregation), same
//     hook; its record also carries peak_rss_bytes for the
//     bounded-memory claim
//
// Perf-floor mode (the CI smoke check): --floor-from <file> compares
// the run just recorded against the most recent run in <file> and
// fails (exit 3) when fig07 events/s or table1_at_scale users/s
// (users / wall_s, both at the default 2000 users) dropped below
// --floor-frac (default 0.9) of the floor, or when either reports any
// InplaceFunction heap fallbacks (allocs > 0) — the per-event path
// must stay allocation-free regardless of machine speed.  The world is
// gated on users/s, not events/s, because its event count per user is
// a property of the cell model and shrinks when the model files fewer
// events for the same work.
//
// The output file holds one run object per line so records append
// across invocations (and across PRs) without a JSON library:
//   {"benchmark": "multinet perf trajectory", "runs": [
//   {"label": "pr3", "variant": "baseline", ...},
//   {"label": "pr3", "variant": "slab", ...}
//   ]}
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string dirname_of(const std::string& path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? std::string{"."} : path.substr(0, pos);
}

bool file_exists(const std::string& path) { return static_cast<bool>(std::ifstream{path}); }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Single-quote `s` for the shell so paths and values are passed
/// through literally; embedded single quotes become '\''.
std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'') q += "'\\''";
    else q += c;
  }
  q += '\'';
  return q;
}

/// Runs `cmd` via the shell, capturing stdout.  Returns false on a
/// non-zero exit (output is still filled for diagnostics).
bool run_capture(const std::string& cmd, std::string& output) {
  output.clear();
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (!pipe) return false;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = fread(chunk, 1, sizeof chunk, pipe)) > 0) output.append(chunk, n);
  return pclose(pipe) == 0;
}

/// Parse google-benchmark console lines: "BM_Name/123  4567 ns  4560 ns  99".
/// Merges into `best` keeping the per-benchmark minimum real time (ns);
/// `order` preserves first-seen output order.
void parse_microbench(const std::string& console, std::map<std::string, double>& best,
                      std::vector<std::string>& order) {
  std::istringstream in(console);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name;
    double real_time = 0.0;
    std::string unit;
    if (!(ls >> name >> real_time >> unit)) continue;
    if (name.rfind("BM_", 0) != 0) continue;
    double ns = real_time;
    if (unit == "us") ns *= 1e3;
    else if (unit == "ms") ns *= 1e6;
    else if (unit == "s") ns *= 1e9;
    else if (unit != "ns") continue;
    const auto [it, inserted] = best.try_emplace(name, ns);
    if (inserted) order.push_back(name);
    else if (ns < it->second) it->second = ns;
  }
}

std::string render_microbench(const std::map<std::string, double>& best,
                              const std::vector<std::string>& order) {
  std::ostringstream body;
  body << "{";
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i) body << ", ";
    body << "\"" << order[i] << "\": " << best.at(order[i]);
  }
  body << "}";
  return body.str();
}

/// Run one macro bench with the MN_BENCH_JSON hook; returns its record
/// (or "null" if the bench failed / produced nothing).  `extra_env` is
/// prepended verbatim (already-quoted VAR=value assignments).
std::string run_macro(const std::string& binary, const std::string& scale,
                      const std::string& macro_reps, const std::string& tmp_json,
                      const std::string& extra_env = {}) {
  std::remove(tmp_json.c_str());
  std::string out;
  const std::string cmd = extra_env + (extra_env.empty() ? "" : " ") +
                          "MN_BENCH_JSON=" + shell_quote(tmp_json) +
                          " MN_RUN_SCALE=" + shell_quote(scale) +
                          " MN_BENCH_REPS=" + shell_quote(macro_reps) + " " +
                          shell_quote(binary) + " > /dev/null";
  if (!run_capture(cmd, out)) {
    std::cerr << "perf_trajectory: " << binary << " failed:\n" << out;
    return "null";
  }
  const std::string record = trim(read_file(tmp_json));
  return record.empty() ? "null" : record;
}

/// Pull `"key": <number>` out of a JSON fragment starting at `from`.
/// Good enough for the records this driver itself writes.
double json_number(const std::string& text, const std::string& key, std::size_t from,
                   double fallback) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle, from);
  if (pos == std::string::npos) return fallback;
  return std::atof(text.c_str() + pos + needle.size());
}

/// `field` under record `key` of the LAST run recorded in a trajectory
/// file ("the previous BENCH"), or -1 when none is parseable.
double last_number(const std::string& path, const std::string& key, const std::string& field) {
  std::istringstream in(read_file(path));
  std::string line;
  const std::string needle = "\"" + key + "\":";
  double found = -1.0;
  while (std::getline(in, line)) {
    const auto pos = line.find(needle);
    if (pos == std::string::npos) continue;
    const double v = json_number(line, field, pos, -1.0);
    if (v > 0.0) found = v;
  }
  return found;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "dev";
  std::string variant = "run";
  std::string bench_dir = dirname_of(argv[0]);
  std::string out_path;
  std::string scale = "0.2";
  std::string floor_from;
  double floor_frac = 0.9;
  int reps = 3;
  std::string macro_reps = "10";
  const std::string default_world_users = "2000";
  std::string world_users = default_world_users;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perf_trajectory: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--label") label = next("--label");
    else if (arg == "--variant") variant = next("--variant");
    else if (arg == "--bench-dir") bench_dir = next("--bench-dir");
    else if (arg == "--out") out_path = next("--out");
    else if (arg == "--scale") scale = next("--scale");
    else if (arg == "--reps") reps = std::max(1, std::atoi(next("--reps").c_str()));
    else if (arg == "--macro-reps") macro_reps = next("--macro-reps");
    else if (arg == "--floor-from") floor_from = next("--floor-from");
    else if (arg == "--floor-frac") floor_frac = std::atof(next("--floor-frac").c_str());
    else if (arg == "--world-users") world_users = next("--world-users");
    else {
      std::cerr << "usage: perf_trajectory [--label L] [--variant V] [--bench-dir D]"
                   " [--out F] [--scale S] [--reps N] [--macro-reps R]"
                   " [--world-users U] [--floor-from F [--floor-frac x]]\n";
      return 2;
    }
  }
  if (out_path.empty()) out_path = "BENCH_" + label + ".json";
  const std::string tmp_json = out_path + ".tmp";

  // Read the floor before measuring: --floor-from may name the same
  // file this run appends to.
  double floor_events_per_s = -1.0;
  double table1_floor_wall_s = -1.0;  // optional: older files lack the record
  if (!floor_from.empty()) {
    if (world_users != default_world_users) {
      std::cerr << "perf_trajectory: --floor-from compares table1_at_scale at the default "
                << default_world_users << " users; drop --world-users\n";
      return 2;
    }
    floor_events_per_s = last_number(floor_from, "fig07", "events_per_s");
    if (floor_events_per_s <= 0.0) {
      std::cerr << "perf_trajectory: no fig07 events_per_s found in " << floor_from
                << "\n";
      return 2;
    }
    table1_floor_wall_s = last_number(floor_from, "table1_at_scale", "wall_s");
  }

  std::map<std::string, double> best;
  std::vector<std::string> order;
  for (int r = 0; r < reps; ++r) {
    std::cout << "perf_trajectory: microbench pass " << (r + 1) << "/" << reps << "...\n";
    std::string console;
    if (!run_capture(shell_quote(bench_dir + "/microbench") + " --benchmark_min_time=0.10",
                     console)) {
      std::cerr << "perf_trajectory: microbench failed:\n" << console;
      return 1;
    }
    parse_microbench(console, best, order);
  }
  const std::string micro = render_microbench(best, order);

  std::cout << "perf_trajectory: fig07_mptcp_vs_tcp (MN_BENCH_REPS=" << macro_reps
            << ")...\n";
  const std::string fig07 =
      run_macro(bench_dir + "/fig07_mptcp_vs_tcp", scale, macro_reps, tmp_json);
  std::cout << "perf_trajectory: chaos_soak (MN_RUN_SCALE=" << scale << ")...\n";
  const std::string chaos = run_macro(bench_dir + "/chaos_soak", scale, "1", tmp_json);
  std::cout << "perf_trajectory: energy_pareto (MN_RUN_SCALE=" << scale << ")...\n";
  const std::string pareto = run_macro(bench_dir + "/energy_pareto", scale, "1", tmp_json);
  // Fixed user count regardless of --scale so floor comparisons across
  // PRs measure the engine, not the workload size (default 2000;
  // --world-users records one-off large-scale variants).
  std::cout << "perf_trajectory: table1_at_scale (MN_WORLD_USERS=" << world_users
            << ")...\n";
  const std::string table1 =
      run_macro(bench_dir + "/table1_at_scale", scale, "1", tmp_json,
                "MN_WORLD_USERS=" + shell_quote(world_users));
  std::remove(tmp_json.c_str());

  std::ostringstream run;
  run << "{\"label\": \"" << label << "\", \"variant\": \"" << variant
      << "\", \"microbench\": " << micro << ", \"fig07\": " << fig07
      << ", \"chaos_soak\": " << chaos << ", \"energy_pareto\": " << pareto
      << ", \"table1_at_scale\": " << table1 << "}";

  // Re-read any previous runs (one per line, by construction) and
  // rewrite the file with the new one appended.
  std::vector<std::string> runs;
  if (file_exists(out_path)) {
    std::istringstream in(read_file(out_path));
    std::string line;
    while (std::getline(in, line)) {
      std::string t = trim(line);
      if (t.rfind("{\"label\"", 0) != 0) continue;
      if (!t.empty() && t.back() == ',') t.pop_back();
      runs.push_back(t);
    }
  }
  runs.push_back(run.str());

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "perf_trajectory: cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"benchmark\": \"multinet perf trajectory\", \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << runs[i] << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  std::cout << "perf_trajectory: appended variant '" << variant << "' to " << out_path
            << " (" << runs.size() << " run(s))\n";

  if (!floor_from.empty()) {
    const double got = json_number(fig07, "events_per_s", 0, -1.0);
    const double allocs = json_number(fig07, "allocs", 0, -1.0);
    const double floor = floor_events_per_s * floor_frac;
    std::cout << "perf_trajectory: floor check — fig07 " << got << " events/s vs floor "
              << floor << " (" << floor_frac << " x " << floor_events_per_s
              << "), allocs " << allocs << "\n";
    if (allocs != 0.0) {
      std::cerr << "perf_trajectory: FAIL — fig07 per-event path allocated (allocs="
                << allocs << ")\n";
      return 3;
    }
    if (got < floor) {
      std::cerr << "perf_trajectory: FAIL — fig07 events/s below perf floor\n";
      return 3;
    }
    // Same gate for the shared-world bench, once a floor file records it.
    if (table1_floor_wall_s > 0.0) {
      const double users = std::atof(world_users.c_str());
      const double t_wall_s = json_number(table1, "wall_s", 0, -1.0);
      const double t_got = t_wall_s > 0.0 ? users / t_wall_s : -1.0;
      const double t_allocs = json_number(table1, "allocs", 0, -1.0);
      const double t_floor = users / table1_floor_wall_s * floor_frac;
      std::cout << "perf_trajectory: floor check — table1_at_scale " << t_got
                << " users/s vs floor " << t_floor << ", allocs " << t_allocs << "\n";
      if (t_allocs != 0.0) {
        std::cerr << "perf_trajectory: FAIL — table1_at_scale per-event path allocated"
                     " (allocs=" << t_allocs << ")\n";
        return 3;
      }
      if (t_got < t_floor) {
        std::cerr << "perf_trajectory: FAIL — table1_at_scale users/s below perf floor\n";
        return 3;
      }
    }
    std::cout << "perf_trajectory: floor check passed\n";
  }
  return 0;
}
