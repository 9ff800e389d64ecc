// Shared helpers for the table/figure benches.
//
// Every bench prints: a header naming the paper artifact it regenerates,
// the paper's reported numbers, and the measured reproduction (tables
// and ASCII plots).  Benches read MN_RUN_SCALE (default 1.0) to shrink
// heavyweight sweeps during development; results at reduced scale are
// noisier but structurally identical.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/ascii_plot.hpp"
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
/// /proc/self/status), or -1 where unavailable.  Benches print it next
/// to events/s so memory-bounded claims — streaming aggregation instead
/// of per-run vectors — are measured, not asserted in prose.
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

}  // namespace mn::bench
