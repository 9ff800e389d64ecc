#include "measure/streaming.hpp"

#include <cassert>
#include <cstdio>
#include <string_view>

namespace mn {

void StreamingClusterStats::merge_from(const StreamingClusterStats& other) {
  assert(name == other.name);
  users_started += other.users_started;
  users_completed += other.users_completed;
  both_measured += other.both_measured;
  lte_wins += other.lte_wins;
  mptcp_down_mbps.merge_from(other.mptcp_down_mbps);
  for (const PathId p : kPaths) {
    down_mbps[p].merge_from(other.down_mbps[p]);
    rtt_ms[p].merge_from(other.rtt_ms[p]);
  }
}

std::size_t StreamingClusterStats::memory_bytes() const {
  std::size_t total = sizeof(*this) + mptcp_down_mbps.memory_bytes();
  for (const PathId p : kPaths) total += down_mbps[p].memory_bytes() + rtt_ms[p].memory_bytes();
  return total;
}

StreamingRunStats::StreamingRunStats(const std::vector<ClusterSpec>& world) {
  clusters_.resize(world.size());
  for (std::size_t i = 0; i < world.size(); ++i) clusters_[i].name = world[i].name;
}

void StreamingRunStats::merge_from(const StreamingRunStats& other) {
  assert(clusters_.size() == other.clusters_.size());
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    clusters_[i].merge_from(other.clusters_[i]);
  }
}

void StreamingRunStats::add_run_record(std::size_t cluster_idx, const RunRecord& rec) {
  assert(cluster_idx < clusters_.size());
  StreamingClusterStats& c = clusters_[cluster_idx];
  ++c.users_started;
  if (rec.failed) return;  // the campaign analysis filters these too
  ++c.users_completed;
  for (const PathId p : kPaths) {
    if (!rec.measured[p]) continue;
    c.down_mbps[p].add(rec.down_mbps[p]);
    c.rtt_ms[p].add(rec.rtt_ms[p]);
  }
  if (rec.complete()) {
    ++c.both_measured;
    if (rec.lte_wins()) ++c.lte_wins;
  }
}

namespace {
void append_sketch(std::string& out, std::string_view label, const QuantileSketch& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  %.*s n=%llu q0=%.17g q25=%.17g q50=%.17g q90=%.17g q99=%.17g q100=%.17g\n",
                static_cast<int>(label.size()), label.data(),
                static_cast<unsigned long long>(s.count()), s.quantile(0.0),
                s.quantile(0.25), s.quantile(0.5), s.quantile(0.9), s.quantile(0.99),
                s.quantile(1.0));
  out += buf;
}
}  // namespace

std::string StreamingRunStats::digest() const {
  std::string out;
  out.reserve(clusters_.size() * 640);
  char buf[256];
  for (const StreamingClusterStats& c : clusters_) {
    std::snprintf(buf, sizeof buf,
                  "%s started=%llu completed=%llu both=%llu lte_wins=%llu\n",
                  c.name.c_str(), static_cast<unsigned long long>(c.users_started),
                  static_cast<unsigned long long>(c.users_completed),
                  static_cast<unsigned long long>(c.both_measured),
                  static_cast<unsigned long long>(c.lte_wins));
    out += buf;
    // Field-major: both downlink sketches, MPTCP's, then both RTTs.
    for (const PathId p : kPaths) {
      append_sketch(out, std::string{path_name(p)} + "_down", c.down_mbps[p]);
    }
    append_sketch(out, "mptcp_down", c.mptcp_down_mbps);
    for (const PathId p : kPaths) {
      append_sketch(out, std::string{path_name(p)} + "_rtt", c.rtt_ms[p]);
    }
  }
  return out;
}

Table StreamingRunStats::table1() const {
  std::vector<std::string> header{"Location Name", "Users", "LTE %"};
  for (const PathId p : kPaths) header.push_back(to_string(p) + " p50 (Mbps)");
  header.push_back("MPTCP p50 (Mbps)");
  for (const PathId p : kPaths) header.push_back(to_string(p) + " p50 RTT (ms)");
  Table t{std::move(header)};
  for (const StreamingClusterStats& c : clusters_) {
    std::vector<std::string> row{c.name, std::to_string(c.users_completed),
                                 Table::pct(c.lte_win_fraction())};
    for (const QuantileSketch& s : c.down_mbps) row.push_back(Table::num(s.median()));
    row.push_back(Table::num(c.mptcp_down_mbps.median()));
    for (const QuantileSketch& s : c.rtt_ms) row.push_back(Table::num(s.median(), 1));
    t.add_row(std::move(row));
  }
  return t;
}

std::size_t StreamingRunStats::memory_bytes() const {
  std::size_t total = sizeof(*this);
  for (const StreamingClusterStats& c : clusters_) total += c.memory_bytes();
  return total;
}

}  // namespace mn
