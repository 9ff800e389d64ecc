// Shared helpers for the table/figure benches.
//
// Every bench prints: a header naming the paper artifact it regenerates,
// the paper's reported numbers, and the measured reproduction (tables
// and ASCII plots).  Benches read MN_RUN_SCALE (default 1.0) to shrink
// heavyweight sweeps during development; results at reduced scale are
// noisier but structurally identical.
// Perf emission: when MN_BENCH_JSON=<path> is set, every binary that
// includes this header writes {wall_s, events, events_per_s, allocs,
// peak_rss_bytes} JSON to <path> at process exit (see PerfJsonAtExit
// below).  The
// bench/perf_trajectory driver aggregates those into the repo-level
// BENCH_<label>.json trajectory files.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/ascii_plot.hpp"
#include "util/inplace_function.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mn::bench {

inline void print_header(const std::string& artifact, const std::string& title) {
  std::cout << "\n================================================================\n"
            << artifact << " — " << title << "\n"
            << "================================================================\n";
}

inline void print_paper(const std::string& expectation) {
  std::cout << "[paper]    " << expectation << "\n";
}

inline void print_measured(const std::string& finding) {
  std::cout << "[measured] " << finding << "\n";
}

inline double env_scale(const char* name = "MN_RUN_SCALE", double fallback = 1.0) {
  if (const char* v = std::getenv(name)) {
    const double s = std::atof(v);
    if (s > 0.0) return s;
  }
  return fallback;
}

/// MN_BENCH_REPS (default 1): in-process repetitions of a macro bench's
/// workload.  Process startup — exec, static init, first-touch page
/// faults — costs about as much wall clock as one whole workload body
/// at default scale, so a single-shot run understates engine
/// throughput by ~2x.  The perf_trajectory driver sets this so the
/// events/s record measures steady state, not cold start.
inline int env_reps() {
  if (const char* v = std::getenv("MN_BENCH_REPS")) {
    const int r = std::atoi(v);
    if (r > 0) return r;
  }
  return 1;
}

/// Downsampled CDF curve of a distribution, ready for render_plot.
inline Series cdf_series(const EmpiricalDistribution& dist, std::string name,
                         int points = 120) {
  Series s;
  s.name = std::move(name);
  if (dist.empty()) return s;
  for (int i = 0; i <= points; ++i) {
    const double q = static_cast<double>(i) / points;
    s.points.emplace_back(dist.quantile(q), q);
  }
  return s;
}

/// |a - b| / b as a percentage (the paper's relative differences).
inline double relative_diff_pct(double a, double b) {
  if (b <= 0.0) return 0.0;
  return std::abs(a - b) / b * 100.0;
}

/// Peak resident set size of this process in bytes (Linux VmHWM from
/// /proc/self/status), or -1 where unavailable.  Benches record it next
/// to events/s so memory-bounded claims — streaming aggregation instead
/// of per-run vectors — are machine-checked, not asserted in prose.
inline std::int64_t read_peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  if (!in) return -1;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      // Format: "VmHWM:    123456 kB"
      const std::int64_t kb = std::atoll(line.c_str() + 6);
      return kb > 0 ? kb * 1024 : -1;
    }
  }
  return -1;
}

namespace detail {

/// Writes the perf record for this process to $MN_BENCH_JSON at exit:
///   wall_s        wall-clock from static init to exit (steady clock —
///                 the only wall-clock use in the tree, and it never
///                 feeds back into simulated behaviour)
///   events        simulator events fired process-wide
///   events_per_s  the headline engine-throughput number
///   allocs        InplaceFunction heap fallbacks — 0 proves the
///                 per-event path stayed allocation-free
///   peak_rss_bytes  process peak RSS (VmHWM; -1 off-Linux) — pins the
///                 bounded-memory claims of the streaming aggregators
/// One inline instance per bench binary; no-op when the env var is unset.
struct PerfJsonAtExit {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  ~PerfJsonAtExit() {
    const char* path = std::getenv("MN_BENCH_JSON");
    if (!path || !*path) return;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const std::uint64_t events = Simulator::process_events_fired();
    const std::uint64_t allocs = inplace_function_heap_fallbacks();
    const std::int64_t peak_rss = read_peak_rss_bytes();
    std::ofstream out(path);
    if (!out) return;
    out << "{\"wall_s\": " << wall_s << ", \"events\": " << events
        << ", \"events_per_s\": " << (wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0)
        << ", \"allocs\": " << allocs << ", \"peak_rss_bytes\": " << peak_rss << "}\n";
  }
};
inline PerfJsonAtExit g_perf_json_at_exit;

}  // namespace detail

}  // namespace mn::bench
