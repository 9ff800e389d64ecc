#include "measure/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "mptcp/testbed.hpp"
#include "net/middlebox.hpp"
#include "net/trace_gen.hpp"
#include "obs/obs.hpp"
#include "store/codec.hpp"
#include "store/memoize.hpp"
#include "tcp/flow.hpp"

namespace mn {
namespace {

/// Pings per network measurement (the app's fixed probe).
constexpr int kPingCount = 10;
/// Watchdog bound for fault-injected probes.
constexpr Duration kFaultStallLimit = sec(5);

/// One network measurement: 1 MB up + 1 MB down + pings, on fresh links.
struct ProbeResult {
  double up_mbps = 0.0;
  double down_mbps = 0.0;
  double rtt_ms = 0.0;
  std::string failure;  // non-empty when a transfer stalled or timed out
};

/// One link draw of network `path` at the plan's rate and delay.
LinkSpec make_link(const RunPlan& plan, PathId path, Rng& rng) {
  const double mbps = plan.rate_mbps[path];
  LinkSpec s;
  s.one_way_delay = plan.delay[path];
  // WiFi: Poisson contention; LTE: bursty two-state scheduler, deeper
  // (bufferbloated) queues — both trace-driven, Mahimahi style.
  const Duration period = sec(2);
  if (path == PathId::kLte) {
    TwoStateSpec ts;
    ts.good_mbps = mbps * 1.4;
    ts.bad_mbps = std::max(0.3, mbps * 0.4);
    ts.mean_dwell = msec(300);
    s.trace = std::make_shared<DeliveryTrace>(two_state_trace(ts, period, rng));
    s.queue_packets = 150;
  } else {
    s.trace = std::make_shared<DeliveryTrace>(poisson_trace(mbps, period, rng));
    s.queue_packets = 64;
  }
  return s;
}

ProbeResult probe_network(const RunPlan& plan, PathId p, Rng& rng, const CampaignOptions& opt,
                          const FaultPlan* faults, obs::ObsHub* hub) {
  // Each probe gets a fresh simulator and a fresh path (two link draws,
  // uplink first), with the fault plan `armed` injected when given.
  const auto on_fresh_path = [&](const FaultPlan* armed, const auto& probe) {
    Simulator sim;
    sim.set_obs(hub);
    DuplexPath path{sim, make_link(plan, p, rng), make_link(plan, p, rng)};
    FaultInjector injector{sim};
    if (armed) {
      injector.set_target(p, &path);
      injector.arm(*armed);
    }
    return probe(sim, path);
  };
  BulkFlowOptions flow_options;
  flow_options.timeout = sec(60);
  // Unfaulted probes keep the legacy wall-clock-only contract; faulted
  // ones get the tight watchdog so an unrestored blackhole fails the run
  // quickly instead of burning the full timeout.
  flow_options.stall_limit = faults ? kFaultStallLimit : sec(60);
  const auto bulk = [&](Direction dir) {
    return on_fresh_path(faults, [&](Simulator& sim, DuplexPath& path) {
      return run_bulk_flow(sim, path, opt.transfer_bytes, dir, reno_factory(), flow_options);
    });
  };

  ProbeResult res;
  const auto up = bulk(Direction::kUpload);
  res.up_mbps = up.throughput_mbps;
  if (!up.completed) res.failure = "uplink " + up.failure_reason;
  const auto down = bulk(Direction::kDownload);
  res.down_mbps = down.throughput_mbps;
  if (!down.completed && res.failure.empty()) res.failure = "downlink " + down.failure_reason;
  res.rtt_ms = on_fresh_path(nullptr, [&](Simulator& sim, DuplexPath& path) {
                 return measure_ping_rtt(sim, path, kPingCount);
               }).millis();
  return res;
}

/// The MPTCP middlebox probe: one short multipath flow over both
/// measured networks, with one option-sanitising middlebox per path.
/// The WiFi box strips MP_CAPABLE and the LTE box strips MP_JOIN, each
/// with the swept per-box probability; the policy is drawn once per
/// path (a physical middlebox affects both directions identically), so
/// the effective strip probability equals the knob exactly.
void probe_multipath(const RunPlan& plan, const CampaignOptions& opt, Rng& rng,
                     obs::ObsHub* hub, RunRecord& rec) {
  Simulator sim;
  sim.set_obs(hub);
  MpNetworkSetup setup;
  for (const PathId p : kPaths) {
    setup.paths[p].up = make_link(plan, p, rng);
    setup.paths[p].down = make_link(plan, p, rng);
  }
  FlowRunOptions flow_options;
  flow_options.timeout = sec(60);
  // A degraded flow still finishes on the surviving path; only a real
  // stall (which the fallback machinery must prevent) trips this.
  flow_options.stall_limit = sec(10);
  flow_options.on_testbed = [&plan](MptcpTestbed& bed) {
    for (const PathId p : kPaths) {
      MiddleboxSpec box;
      box.strip_capable = p == PathId::kWifi ? plan.middlebox_strip : 0.0;
      box.strip_join = p == PathId::kLte ? plan.middlebox_strip : 0.0;
      box.seed = mix_seed(plan.middlebox_seed, path_name(p));
      bed.path(p).uplink().set_middlebox(box);
      bed.path(p).downlink().set_middlebox(box);
    }
  };
  MptcpSpec spec;
  spec.scheduler = opt.mp_scheduler;
  const MptcpFlowResult r = run_mptcp_flow(sim, setup, spec, opt.mp_probe_bytes,
                                           Direction::kDownload, flow_options);
  rec.mp_probed = true;
  rec.negotiated_mp = r.negotiated_mp;
  rec.achieved_mp = r.achieved_mp;
  rec.fallback_reason = r.fallback_reason;
  rec.energy_j = r.energy_j;
  rec.scheduler = to_string(r.scheduler);
  if (!r.completed && !rec.failed) {
    rec.failed = true;
    rec.failure_reason = "mp_probe " + r.failure_reason;
  }
}

}  // namespace

std::vector<RunPlan> plan_campaign(const std::vector<ClusterSpec>& world,
                                   const CampaignOptions& options) {
  Rng rng{options.seed};
  std::vector<RunPlan> plans;
  for (const ClusterSpec& cluster : world) {
    Rng crng = rng.fork(cluster.name);
    const int n = std::max(1, static_cast<int>(std::lround(
                                  cluster.runs * options.run_scale)));
    for (int i = 0; i < n; ++i) {
      RunPlan plan;
      plan.cluster = cluster.name;
      // Users wander near the cluster centre (well inside the paper's
      // 100 km grouping radius).
      plan.pos.lat_deg = cluster.centre.lat_deg + crng.uniform(-0.3, 0.3);
      plan.pos.lon_deg = cluster.centre.lon_deg + crng.uniform(-0.3, 0.3);

      // Figure-2 flowchart: some runs can't measure one of the networks.
      const bool skip_one = crng.chance(options.incomplete_probability);
      plan.skip[PathId::kWifi] = skip_one && crng.chance(0.5);
      plan.skip[PathId::kLte] = skip_one && !plan.skip[PathId::kWifi];

      // Chaos-in-the-campaign: some runs execute under a random fault
      // plan.  All draws are gated on the knob so the seeded campaign
      // stream (and every campaign statistic) is untouched at 0.0.
      if (options.fault_probability > 0.0 && crng.chance(options.fault_probability)) {
        RandomPlanOptions plan_options;
        plan_options.horizon = sec(4);
        // Campaign chaos is meant to bite: more events, fewer restores
        // than the soak default, so a faulted probe has a real chance of
        // hitting the watchdog instead of sailing through.
        plan_options.max_events = 8;
        plan_options.restore_probability = 0.35;
        plan.faults = random_fault_plan(crng.fork("faults").next_u64(), plan_options);
        plan.has_faults = true;
      }

      // MPTCP middlebox probe (the negotiated-vs-achieved sweep): only
      // runs that measure both networks can multipath, and all draws are
      // gated on the knob so the legacy stream is untouched at 0.0.
      if (options.middlebox_strip_probability > 0.0 &&
          std::ranges::none_of(plan.skip, std::identity{})) {
        plan.has_middlebox = true;
        plan.middlebox_strip = options.middlebox_strip_probability;
        plan.middlebox_seed = crng.fork("middlebox").next_u64();
      }

      for (const PathId p : kPaths) {
        if (plan.skip[p]) continue;
        plan.rate_mbps[p] = cluster.rate[p].sample(crng);
        plan.delay[p] = cluster.delay[p].sample(crng);
      }
      // The execute phase draws only link-trace noise, from a stream
      // forked per run — run i's draw count can never shift run i+1.
      plan.probe_seed = crng.fork("probe").next_u64();
      plans.push_back(std::move(plan));
    }
  }
  return plans;
}

RunRecord execute_run(const RunPlan& plan, const CampaignOptions& options) {
  RunRecord rec;
  rec.cluster = plan.cluster;
  rec.pos = plan.pos;
  Rng rng{plan.probe_seed};
  const FaultPlan* faults = plan.has_faults ? &plan.faults : nullptr;

  // The run's private observability shard: every probe simulator records
  // here, and the snapshot rides home on the record.  Private-per-run is
  // what keeps parallel execution deterministic — no shared counters,
  // no atomics, merge happens serially in plan order.
  obs::ObsHub hub;

  // Per-run isolation: a throwing or stalling run becomes a failed
  // record; the campaign itself never aborts.
  try {
    for (const PathId p : kPaths) {
      if (plan.skip[p]) continue;
      const ProbeResult probe = probe_network(plan, p, rng, options, faults, &hub);
      rec.measured[p] = true;
      rec.up_mbps[p] = probe.up_mbps;
      rec.down_mbps[p] = probe.down_mbps;
      rec.rtt_ms[p] = probe.rtt_ms;
      if (!probe.failure.empty() && !rec.failed) {
        rec.failed = true;
        rec.failure_reason = std::string{path_name(p)} + " " + probe.failure;
      }
    }
    if (plan.has_middlebox) probe_multipath(plan, options, rng, &hub, rec);
  } catch (const std::exception& e) {
    rec.failed = true;
    rec.failure_reason = e.what();
  }
  rec.metrics = hub.snapshot();
  return rec;
}

store::ScenarioKey scenario_key(const RunPlan& plan, const CampaignOptions& options) {
  store::KeyBuilder key{"campaign-run"};
  key.str(plan.cluster)
      .f64(plan.pos.lat_deg)
      .f64(plan.pos.lon_deg);
  for (const bool skip : plan.skip) key.boolean(skip);
  for (const PathId p : kPaths) key.f64(plan.rate_mbps[p]).i64(plan.delay[p].usec());
  key.u64(plan.probe_seed).boolean(plan.has_faults);
  if (plan.has_faults) {
    // The fault plan and its watchdog change probe behaviour — but the
    // watchdog only for faulted runs, so it only keys here.
    key.str(plan.faults.serialize()).i64(kFaultStallLimit.usec());
  }
  key.boolean(plan.has_middlebox);
  if (plan.has_middlebox) {
    // The scheduler only shapes the MPTCP probe, so it only keys here:
    // legacy (probe-less) keys are untouched by the knob.
    key.f64(plan.middlebox_strip).u64(plan.middlebox_seed).i64(options.mp_probe_bytes);
    key.str(to_string(options.mp_scheduler));
  }
  key.i64(options.transfer_bytes).u32(static_cast<std::uint32_t>(kPingCount));
  return key.finish();
}

namespace {

/// Blob layout version for serialized RunRecords (independent of the
/// key's kRunFormatVersion: layout can evolve without invalidating keys).
constexpr std::uint8_t kRunRecordBlobVersion = 3;  // v3: probe energy + scheduler
/// Oldest version parse_run_record still reads (missing fields default).
constexpr std::uint8_t kOldestReadableBlobVersion = 2;

}  // namespace

std::string serialize_run_record(const RunRecord& rec) {
  store::BinWriter w;
  w.put_u8(kRunRecordBlobVersion);
  w.put_str(rec.cluster);
  w.put_f64(rec.pos.lat_deg);
  w.put_f64(rec.pos.lon_deg);
  // Field-major: both measured flags, up/down per path, both RTTs.
  for (const bool measured : rec.measured) w.put_bool(measured);
  for (const PathId p : kPaths) {
    w.put_f64(rec.up_mbps[p]);
    w.put_f64(rec.down_mbps[p]);
  }
  for (const double rtt : rec.rtt_ms) w.put_f64(rtt);
  w.put_bool(rec.failed);
  w.put_str(rec.failure_reason);
  w.put_bool(rec.mp_probed);
  w.put_bool(rec.negotiated_mp);
  w.put_bool(rec.achieved_mp);
  w.put_str(rec.fallback_reason);
  for (const double joules : rec.energy_j) w.put_f64(joules);
  w.put_str(rec.scheduler);
  store::put_metrics_snapshot(w, rec.metrics);
  return w.take();
}

RunRecord parse_run_record(std::string_view blob) {
  store::BinReader r{blob};
  const std::uint8_t version = r.get_u8();
  if (version < kOldestReadableBlobVersion || version > kRunRecordBlobVersion) {
    throw std::runtime_error("run record blob: unknown layout version");
  }
  RunRecord rec;
  rec.cluster = r.get_str();
  rec.pos.lat_deg = r.get_f64();
  rec.pos.lon_deg = r.get_f64();
  for (bool& measured : rec.measured) measured = r.get_bool();
  for (const PathId p : kPaths) {
    rec.up_mbps[p] = r.get_f64();
    rec.down_mbps[p] = r.get_f64();
  }
  for (double& rtt : rec.rtt_ms) rtt = r.get_f64();
  rec.failed = r.get_bool();
  rec.failure_reason = r.get_str();
  rec.mp_probed = r.get_bool();
  rec.negotiated_mp = r.get_bool();
  rec.achieved_mp = r.get_bool();
  rec.fallback_reason = r.get_str();
  if (version >= 3) {
    for (double& joules : rec.energy_j) joules = r.get_f64();
    rec.scheduler = r.get_str();
  }
  rec.metrics = store::get_metrics_snapshot(r);
  r.expect_done();
  return rec;
}

std::vector<RunRecord> run_campaign(const std::vector<ClusterSpec>& world,
                                    const CampaignOptions& options) {
  const std::vector<RunPlan> plans = plan_campaign(world, options);
  return store::memoized_map(
      plans.size(), options.store, options.parallelism,
      [&](std::size_t i) { return scenario_key(plans[i], options); },
      [&](std::size_t i) { return execute_run(plans[i], options); }, serialize_run_record,
      parse_run_record);
}

std::vector<RunRecord> complete_runs(const std::vector<RunRecord>& all) {
  std::vector<RunRecord> out;
  out.reserve(all.size());
  for (const auto& r : all) {
    if (r.complete()) out.push_back(r);
  }
  return out;
}

obs::MetricsSnapshot merge_run_metrics(const std::vector<RunRecord>& runs) {
  obs::MetricsSnapshot total;
  for (const auto& r : runs) total.merge_from(r.metrics);
  return total;
}

namespace {

/// CSV column of a per-path quantity: "wifi_up", "lte_rtt_ms",
/// "m_energy_wifi_j", ...
std::string path_col(std::string_view prefix, PathId p, std::string_view suffix) {
  return std::string{prefix}.append(path_name(p)).append(suffix);
}

}  // namespace

CsvWriter to_csv(const std::vector<RunRecord>& runs) {
  // Field-major like the blob: up/down per path, then both RTTs, then
  // both energies.
  std::vector<std::string> header{"cluster", "lat", "lon"};
  for (const PathId p : kPaths) {
    header.insert(header.end(), {path_col("", p, "_up"), path_col("", p, "_down")});
  }
  for (const PathId p : kPaths) header.push_back(path_col("", p, "_rtt_ms"));
  header.insert(header.end(), {"m_retransmits", "m_rto", "m_drops", "negotiated_mp",
                               "achieved_mp", "fallback_reason"});
  for (const PathId p : kPaths) header.push_back(path_col("m_energy_", p, "_j"));
  header.push_back("scheduler");
  CsvWriter w{std::move(header)};
  for (const auto& r : runs) {
    if (!r.complete()) continue;
    // format_double (shortest round-trip form): from_csv(to_csv(runs))
    // must reproduce every value bit-for-bit.  The MPTCP columns encode
    // "no probe" as empty (distinct from "0"), so mp_probed round-trips.
    std::vector<std::string> row{r.cluster, format_double(r.pos.lat_deg),
                                 format_double(r.pos.lon_deg)};
    for (const PathId p : kPaths) {
      row.insert(row.end(), {format_double(r.up_mbps[p]), format_double(r.down_mbps[p])});
    }
    for (const double rtt : r.rtt_ms) row.push_back(format_double(rtt));
    row.insert(row.end(), {std::to_string(r.metrics.value_of("tcp.retransmits")),
                           std::to_string(r.metrics.value_of("tcp.rto_fires")),
                           std::to_string(r.metrics.sum_with_prefix("drop.")),
                           r.mp_probed ? (r.negotiated_mp ? "1" : "0") : "",
                           r.mp_probed ? (r.achieved_mp ? "1" : "0") : "", r.fallback_reason});
    for (const double joules : r.energy_j) {
      row.push_back(r.mp_probed ? format_double(joules) : "");
    }
    row.push_back(r.scheduler);
    w.add_row(std::move(row));
  }
  return w;
}

std::vector<RunRecord> from_csv(const CsvData& data) {
  std::vector<RunRecord> out;
  const auto c_cluster = data.col("cluster");
  const auto c_lat = data.col("lat");
  const auto c_lon = data.col("lon");
  PerPath<std::size_t> c_up;
  PerPath<std::size_t> c_down;
  PerPath<std::size_t> c_rtt;
  for (const PathId p : kPaths) {
    c_up[p] = data.col(path_col("", p, "_up"));
    c_down[p] = data.col(path_col("", p, "_down"));
  }
  for (const PathId p : kPaths) c_rtt[p] = data.col(path_col("", p, "_rtt_ms"));
  // Metrics columns appeared with the observability subsystem; files
  // written before it legitimately lack them.
  const auto c_mx = data.find_col("m_retransmits");
  const auto c_mr = data.find_col("m_rto");
  const auto c_md = data.find_col("m_drops");
  // MPTCP columns appeared with the middlebox adversary layer; older
  // files legitimately lack them.
  const auto c_nm = data.find_col("negotiated_mp");
  const auto c_am = data.find_col("achieved_mp");
  const auto c_fr = data.find_col("fallback_reason");
  // Energy + scheduler columns appeared with the pluggable-scheduler
  // layer; files written before it legitimately lack them.
  PerPath<std::optional<std::size_t>> c_energy;
  for (const PathId p : kPaths) c_energy[p] = data.find_col(path_col("m_energy_", p, "_j"));
  const auto c_sc = data.find_col("scheduler");
  const bool has_energy =
      std::ranges::all_of(c_energy, [](const auto& c) { return c.has_value(); });
  for (std::size_t i = 0; i < data.rows.size(); ++i) {
    const auto& row = data.rows[i];
    // Rows can come from hand-built CsvData, not just parse_csv (which
    // already rejects ragged rows) — never index past a short row, and
    // name the offending row in every error.
    try {
      if (row.size() != data.header.size()) {
        throw std::runtime_error("expected " + std::to_string(data.header.size()) +
                                 " fields, got " + std::to_string(row.size()));
      }
      RunRecord r;
      r.cluster = row[c_cluster];
      r.pos = {parse_double(row[c_lat]), parse_double(row[c_lon])};
      for (const PathId p : kPaths) {
        r.up_mbps[p] = parse_double(row[c_up[p]]);
        r.down_mbps[p] = parse_double(row[c_down[p]]);
      }
      for (const PathId p : kPaths) r.rtt_ms[p] = parse_double(row[c_rtt[p]]);
      r.measured.values.fill(true);
      if (c_nm && c_am && c_fr) {
        r.mp_probed = !row[*c_nm].empty();
        if (r.mp_probed) {
          r.negotiated_mp = row[*c_nm] == "1";
          r.achieved_mp = row[*c_am] == "1";
          r.fallback_reason = row[*c_fr];
        }
      }
      if (r.mp_probed && has_energy && c_sc) {
        for (const PathId p : kPaths) {
          if (!row[*c_energy[p]].empty()) r.energy_j[p] = parse_double(row[*c_energy[p]]);
        }
        r.scheduler = row[*c_sc];
      }
      if (c_mx && c_mr && c_md) {
        // Rebuild just enough of the snapshot that a re-export emits the
        // same columns: drop causes collapse to one "drop.total" counter.
        auto counter = [](std::string name, std::int64_t v) {
          obs::SnapshotEntry e;
          e.name = std::move(name);
          e.kind = obs::MetricKind::kCounter;
          e.value = v;
          return e;
        };
        r.metrics.entries = {
            counter("drop.total", llround(parse_double(row[*c_md]))),
            counter("tcp.retransmits", llround(parse_double(row[*c_mx]))),
            counter("tcp.rto_fires", llround(parse_double(row[*c_mr]))),
        };
      }
      out.push_back(std::move(r));
    } catch (const std::exception& e) {
      throw std::runtime_error("campaign CSV row " + std::to_string(i + 1) + ": " +
                               e.what());
    }
  }
  return out;
}

double CampaignAnalysis::lte_win_combined() const {
  const auto total = static_cast<double>(up_diff.size() + down_diff.size());
  if (total <= 0.0) return 0.0;
  const double wins = up_diff.fraction_below(0.0) * static_cast<double>(up_diff.size()) +
                      down_diff.fraction_below(0.0) * static_cast<double>(down_diff.size());
  return wins / total;
}

double CampaignAnalysis::lte_rtt_win() const {
  // Lower RTT wins: LTE wins where RTT(WiFi) - RTT(LTE) is positive.
  if (rtt_diff.empty()) return 0.0;
  return 1.0 - rtt_diff.cdf_at(0.0);
}

CampaignAnalysis analyze_campaign(const std::vector<RunRecord>& runs) {
  CampaignAnalysis a;
  for (const auto& r : runs) {
    if (!r.complete()) continue;
    a.up_diff.add(r.up_mbps[PathId::kWifi] - r.up_mbps[PathId::kLte]);
    a.down_diff.add(r.down_mbps[PathId::kWifi] - r.down_mbps[PathId::kLte]);
    a.rtt_diff.add(r.rtt_ms[PathId::kWifi] - r.rtt_ms[PathId::kLte]);
  }
  return a;
}

}  // namespace mn
