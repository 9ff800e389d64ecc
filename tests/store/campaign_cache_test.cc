// The store's end-to-end contract: campaign / sweep / chaos output is
// byte-identical across cold cache, warm cache, mixed cache, any
// parallelism, and a kill-and-rerun resume — and every flavour of
// corruption degrades to a clean cache miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "faults/chaos.hpp"
#include "measure/campaign.hpp"
#include "measure/locations20.hpp"
#include "store/key.hpp"
#include "store/run_store.hpp"

namespace mn {
namespace {

namespace fs = std::filesystem;

std::vector<ClusterSpec> tiny_world() {
  return {make_cluster("FastWiFi", {40.0, -70.0}, 12, 0.10, 14.0),
          make_cluster("FastLTE", {10.0, 100.0}, 12, 0.85, 4.0)};
}

CampaignOptions small_campaign() {
  CampaignOptions opt;
  opt.run_scale = 0.25;  // 6 runs
  opt.incomplete_probability = 0.2;
  opt.fault_probability = 0.15;
  return opt;
}

/// The full observable output of a campaign, as bytes.
std::string campaign_bytes(const std::vector<RunRecord>& runs) {
  return to_csv(runs).str() + "\n===\n" + merge_run_metrics(runs).prometheus_text();
}

class CampaignCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("cache_" + std::string{::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()});
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

// The golden test of the tentpole: cold cache, warm cache, and a mixed
// cache produce byte-identical records + merged metrics + CSV, at
// serial and parallel worker counts, and match the storeless baseline.
TEST_F(CampaignCacheTest, ColdWarmMixedAndParallelAreByteIdentical) {
  CampaignOptions opt = small_campaign();
  opt.parallelism = 0;
  const std::string golden = campaign_bytes(run_campaign(tiny_world(), opt));

  for (int workers : {1, 4}) {
    fs::remove_all(dir_);
    store::RunStore store{dir()};
    opt.parallelism = workers;
    opt.store = &store;

    const auto cold = run_campaign(tiny_world(), opt);
    EXPECT_EQ(campaign_bytes(cold), golden) << "cold, workers=" << workers;
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, cold.size());

    const auto warm = run_campaign(tiny_world(), opt);
    EXPECT_EQ(campaign_bytes(warm), golden) << "warm, workers=" << workers;
    EXPECT_EQ(store.stats().hits, warm.size());
    EXPECT_EQ(store.stats().misses, warm.size());  // unchanged since cold
    opt.store = nullptr;
  }
}

// Crash-resume: a campaign killed partway keeps its finished runs; the
// rerun executes only the remainder and reproduces the golden output.
TEST_F(CampaignCacheTest, KilledCampaignResumesWithOnlyMissingRuns) {
  CampaignOptions opt = small_campaign();
  opt.parallelism = 0;
  const std::string golden = campaign_bytes(run_campaign(tiny_world(), opt));
  const auto plans = plan_campaign(tiny_world(), opt);
  ASSERT_GE(plans.size(), 4u);

  {
    // "Killed" campaign: only the first half of the plans completed (and
    // the store is dropped without sealing, like a dead process).
    store::RunStore half{dir()};
    for (std::size_t i = 0; i < plans.size() / 2; ++i) {
      half.put(scenario_key(plans[i], opt),
               serialize_run_record(execute_run(plans[i], opt)));
    }
  }

  store::RunStore store{dir()};
  EXPECT_EQ(store.size(), plans.size() / 2);
  opt.store = &store;
  const auto resumed = run_campaign(tiny_world(), opt);
  EXPECT_EQ(campaign_bytes(resumed), golden);
  // Exactly the missing half executed.
  EXPECT_EQ(store.stats().hits, plans.size() / 2);
  EXPECT_EQ(store.stats().misses, plans.size() - plans.size() / 2);
  EXPECT_EQ(store.stats().puts, plans.size() - plans.size() / 2);
}

// Corruption at the blob level: an undecodable cached blob is a clean
// miss — the run re-executes and the fresh record supersedes the junk.
TEST_F(CampaignCacheTest, CorruptBlobIsACleanMissAndIsSuperseded) {
  CampaignOptions opt = small_campaign();
  opt.parallelism = 0;
  const std::string golden = campaign_bytes(run_campaign(tiny_world(), opt));
  const auto plans = plan_campaign(tiny_world(), opt);

  store::RunStore store{dir()};
  store.put(scenario_key(plans[0], opt), "junk that is not a RunRecord");
  opt.store = &store;
  const auto runs = run_campaign(tiny_world(), opt);
  EXPECT_EQ(campaign_bytes(runs), golden);
  EXPECT_EQ(store.stats().hits, 1u);  // the corrupt blob was found...
  // ...but every run re-executed (+1 for the poison put itself).
  EXPECT_EQ(store.stats().puts, plans.size() + 1);

  // And the supersede stuck: a second pass is all hits, still golden.
  const auto warm = run_campaign(tiny_world(), opt);
  EXPECT_EQ(campaign_bytes(warm), golden);
  EXPECT_EQ(store.stats().puts, plans.size() + 1);
}

// The version salt: entries keyed under a different format version can
// never be found by the current code — a bump is a clean global miss.
TEST_F(CampaignCacheTest, WrongVersionSaltNeverHits) {
  CampaignOptions opt = small_campaign();
  const auto plans = plan_campaign(tiny_world(), opt);
  store::RunStore store{dir()};
  // Poison: a record stored under a hypothetical future format version.
  store::KeyBuilder future{"campaign-run", store::kRunFormatVersion + 1};
  future.str(plans[0].cluster).f64(plans[0].pos.lat_deg);
  store.put(future.finish(), "stale bytes from the future");
  EXPECT_FALSE(store.lookup(scenario_key(plans[0], opt)).has_value());
}

TEST_F(CampaignCacheTest, ScenarioKeyIsAPureFunctionOfPlanAndOptions) {
  const CampaignOptions opt = small_campaign();
  const auto plans = plan_campaign(tiny_world(), opt);
  ASSERT_GE(plans.size(), 2u);
  EXPECT_EQ(scenario_key(plans[0], opt), scenario_key(plans[0], opt));
  EXPECT_NE(scenario_key(plans[0], opt), scenario_key(plans[1], opt));
  // Result-affecting options key; plan-phase-only options don't.
  CampaignOptions bigger = opt;
  bigger.transfer_bytes *= 2;
  EXPECT_NE(scenario_key(plans[0], opt), scenario_key(plans[0], bigger));
  CampaignOptions threaded = opt;
  threaded.parallelism = 8;
  threaded.run_scale = 2.0;
  threaded.seed += 1;
  EXPECT_EQ(scenario_key(plans[0], opt), scenario_key(plans[0], threaded));
}

TEST_F(CampaignCacheTest, RunRecordBlobRoundTripsExactly) {
  CampaignOptions opt = small_campaign();
  opt.parallelism = 0;
  const auto runs = run_campaign(tiny_world(), opt);
  for (const RunRecord& rec : runs) {
    const RunRecord back = parse_run_record(serialize_run_record(rec));
    EXPECT_EQ(back.cluster, rec.cluster);
    EXPECT_EQ(back.pos.lat_deg, rec.pos.lat_deg);  // bit-exact doubles
    EXPECT_EQ(back.up_mbps[PathId::kWifi], rec.up_mbps[PathId::kWifi]);
    EXPECT_EQ(back.rtt_ms[PathId::kLte], rec.rtt_ms[PathId::kLte]);
    EXPECT_EQ(back.failed, rec.failed);
    EXPECT_EQ(back.failure_reason, rec.failure_reason);
    EXPECT_EQ(back.metrics.prometheus_text(), rec.metrics.prometheus_text());
  }
  // Truncated blobs throw (clean miss), never crash.
  const std::string bytes = serialize_run_record(runs[0]);
  for (std::size_t n = 0; n < bytes.size(); n += 7) {
    EXPECT_THROW((void)parse_run_record(bytes.substr(0, n)), std::runtime_error);
  }
}

TEST_F(CampaignCacheTest, SweepColdAndWarmAreIdentical) {
  LinkSpec wifi;
  wifi.rate_mbps = 12.0;
  LinkSpec lte;
  lte.rate_mbps = 6.0;
  lte.one_way_delay = msec(30);
  const MpNetworkSetup net = symmetric_setup(wifi, lte);
  const TransportConfig config = TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled);
  const std::vector<std::int64_t> sizes{20'000, 200'000};

  SweepOptions opt;
  opt.parallelism = 0;
  const auto baseline = sweep_flow_sizes(net, config, sizes, opt);

  store::RunStore store{dir()};
  opt.store = &store;
  const auto cold = sweep_flow_sizes(net, config, sizes, opt);
  EXPECT_EQ(store.stats().misses, sizes.size());
  const auto warm = sweep_flow_sizes(net, config, sizes, opt);
  EXPECT_EQ(store.stats().hits, sizes.size());
  ASSERT_EQ(cold.size(), baseline.size());
  ASSERT_EQ(warm.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(cold[i].throughput_mbps, baseline[i].throughput_mbps);
    EXPECT_EQ(warm[i].throughput_mbps, baseline[i].throughput_mbps);
    EXPECT_EQ(warm[i].completion_time, baseline[i].completion_time);
  }
  // Direction keys: the same sweep uploading is a distinct scenario.
  EXPECT_NE(sweep_scenario_key(net, config, sizes[0], Direction::kDownload),
            sweep_scenario_key(net, config, sizes[0], Direction::kUpload));

  // A poisoned point is a clean miss: it re-simulates, matches the
  // storeless baseline, and its fresh put supersedes the junk.
  store.put(sweep_scenario_key(net, config, sizes[1], opt.dir), "junk, not a SweepPoint");
  const std::uint64_t puts = store.stats().puts;
  const auto healed = sweep_flow_sizes(net, config, sizes, opt);
  EXPECT_EQ(store.stats().puts, puts + 1);
  const auto rewarm = sweep_flow_sizes(net, config, sizes, opt);
  EXPECT_EQ(store.stats().puts, puts + 1);
  for (const auto* points : {&healed, &rewarm}) {
    ASSERT_EQ(points->size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ((*points)[i].throughput_mbps, baseline[i].throughput_mbps);
      EXPECT_EQ((*points)[i].completion_time, baseline[i].completion_time);
    }
  }
}

// Every warm sweep store is addressed by these bytes: a change to how
// the key absorbs the network, the transport or the flow turns all of
// them cold.  Pinned for a fixed-rate pair with loss and burst loss, and
// for a trace-driven Table-2 location whose four links all differ.
TEST(SweepScenarioKey, BytesArePinned) {
  LinkSpec wifi;
  wifi.rate_mbps = 12.0;
  wifi.loss_rate = 0.01;
  wifi.loss_seed = 77;
  LinkSpec lte;
  lte.rate_mbps = 6.0;
  lte.one_way_delay = msec(30);
  lte.queue_packets = 64;
  lte.burst_loss = GeLossSpec{0.0, 0.5, 0.01, 0.2, 9};
  EXPECT_EQ(sweep_scenario_key(symmetric_setup(wifi, lte),
                               TransportConfig::mptcp(PathId::kWifi, CcAlgo::kCoupled),
                               200'000, Direction::kDownload)
                .hex(),
            "6705d2ebab03e62d7d6c2d6981b36fe0");
  EXPECT_EQ(sweep_scenario_key(location_setup(table2_locations()[3], 7),
                               TransportConfig::single_path(PathId::kLte), 1'000'000,
                               Direction::kUpload)
                .hex(),
            "cc4d75ecf945c1630c2143e5422c51e4");
}

TEST(ChaosScenarioKey, BytesArePinned) {
  const ChaosSoakOptions defaults;
  EXPECT_EQ(chaos_scenario_key(defaults.seed, defaults).hex(), "b7e683a0d9bd40a8c42041afbbe9ccde");
  ChaosSoakOptions opt;
  opt.max_bytes = 400'000;
  opt.timeout = sec(30);
  opt.stall_limit = sec(5);
  opt.plan.max_events = 0;
  opt.plan.middlebox_probability = 0.5;
  opt.flight_recorder_events = 256;
  EXPECT_EQ(chaos_scenario_key(opt.seed + 17, opt).hex(), "f296bcf33422f4d1ccdebe217cdf1bff");
}

TEST_F(CampaignCacheTest, ChaosSoakColdAndWarmAreIdentical) {
  ChaosSoakOptions opt;
  opt.runs = 4;
  opt.parallelism = 0;
  opt.timeout = sec(30);
  opt.flight_recorder_events = 256;
  const ChaosSoakSummary baseline = run_chaos_soak(opt);

  store::RunStore store{dir()};
  opt.store = &store;
  const ChaosSoakSummary cold = run_chaos_soak(opt);
  EXPECT_EQ(store.stats().misses, 4u);
  const ChaosSoakSummary warm = run_chaos_soak(opt);
  EXPECT_EQ(store.stats().hits, 4u);

  // A poisoned seed is a clean miss: it re-runs, the summary matches the
  // storeless baseline, and its fresh put supersedes the junk.
  store.put(chaos_scenario_key(opt.seed + 2, opt), "junk, not a ChaosRunReport");
  const std::uint64_t puts = store.stats().puts;
  const ChaosSoakSummary healed = run_chaos_soak(opt);
  EXPECT_EQ(store.stats().puts, puts + 1);
  const ChaosSoakSummary rewarm = run_chaos_soak(opt);
  EXPECT_EQ(store.stats().puts, puts + 1);
  for (const ChaosSoakSummary* s : {&cold, &warm, &healed, &rewarm}) {
    EXPECT_EQ(s->runs, baseline.runs);
    EXPECT_EQ(s->completed, baseline.completed);
    EXPECT_EQ(s->aborted, baseline.aborted);
    EXPECT_EQ(s->max_stall, baseline.max_stall);
    EXPECT_EQ(s->violating.size(), baseline.violating.size());
  }
}

// A cached chaos run re-writes its .mnfr black box: delete the dumps a
// cold soak wrote, rerun warm, and every file comes back byte-identical.
TEST_F(CampaignCacheTest, ChaosHitRewritesItsFlightDump) {
  ChaosSoakOptions opt;  // the watchdog-tripping settings of the obs tests
  opt.runs = 2;
  opt.seed = 5;  // seed 5 completes, seed 6 trips the watchdog
  opt.parallelism = 0;
  opt.max_bytes = 400'000;
  opt.timeout = sec(60);
  opt.stall_limit = sec(5);
  opt.plan.horizon = sec(4);
  opt.plan.max_events = 6;
  opt.plan.restore_probability = 0.0;  // unrestored faults: trips guaranteed soon
  opt.flight_recorder_events = 2048;
  const fs::path dumps = dir_ / "dumps";
  fs::create_directories(dumps);
  opt.flight_dump_dir = dumps.string();

  store::RunStore store{(dir_ / "store").string()};
  opt.store = &store;
  const ChaosSoakSummary cold = run_chaos_soak(opt);
  ASSERT_GT(cold.aborted, 0) << "no run tripped the watchdog";

  auto read_dumps = [&] {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::directory_iterator(dumps)) {
      std::ifstream in(entry.path(), std::ios::binary);
      files[entry.path().filename().string()] =
          std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    }
    return files;
  };
  const auto written = read_dumps();
  ASSERT_FALSE(written.empty());
  for (const auto& [name, bytes] : written) {
    EXPECT_FALSE(bytes.empty()) << name;
    fs::remove(dumps / name);
  }

  const std::uint64_t puts = store.stats().puts;
  (void)run_chaos_soak(opt);
  EXPECT_EQ(store.stats().puts, puts);  // all hits: nothing re-executed
  EXPECT_EQ(read_dumps(), written);
}

TEST_F(CampaignCacheTest, ChaosReportBlobRoundTripsWithFlightDump) {
  ChaosRunReport report;
  report.seed = 42;
  report.completed = false;
  report.failure_reason = "stall";
  report.max_stall = msec(1234);
  report.faults_applied = 3;
  report.bytes_requested = 100'000;
  report.plan_text = "fault plan text";
  report.violations = {"first", "second"};
  report.flight_dump = std::string{"MNFR1\x00\x01raw", 10};
  const ChaosRunReport back = parse_chaos_report(serialize_chaos_report(report));
  EXPECT_EQ(back.seed, report.seed);
  EXPECT_EQ(back.completed, report.completed);
  EXPECT_EQ(back.failure_reason, report.failure_reason);
  EXPECT_EQ(back.max_stall, report.max_stall);
  EXPECT_EQ(back.violations, report.violations);
  EXPECT_EQ(back.flight_dump, report.flight_dump);
}

// The round-trip tests above write and read through the same code, so
// a field moved in both the writer and the reader would still pass.
// These pins fix the campaign's persisted bytes absolutely: the CSV of a
// campaign whose energy and scheduler columns are filled, one serialized
// MPTCP-probed record, and the store keys of a middlebox, a faulted and
// an incomplete run.

CampaignOptions pinned_campaign() {
  CampaignOptions opt;
  opt.run_scale = 0.05;
  opt.fault_probability = 0.2;
  opt.middlebox_strip_probability = 0.3;
  return opt;
}

std::string hex_bytes(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

TEST(CampaignBytes, Table1CsvIsPinned) {
  const std::string csv = to_csv(run_campaign(table1_world(), pinned_campaign())).str();
  ASSERT_NE(csv.find("LowestRTT"), std::string::npos) << "scheduler column filled";
  EXPECT_EQ(store::KeyBuilder("campaign-csv-pin", 1).str(csv).finish().hex(),
            "e9fb5ee6b2e4bdc01ec232daeaeba11f");
}

TEST(CampaignBytes, RunRecordBlobIsPinned) {
  RunRecord rec;
  rec.cluster = "Pinned";
  rec.pos = {42.25, -71.5};
  rec.measured[PathId::kWifi] = true;
  rec.measured[PathId::kLte] = false;
  rec.up_mbps[PathId::kWifi] = 1.5;
  rec.down_mbps[PathId::kWifi] = 2.5;
  rec.up_mbps[PathId::kLte] = 3.5;
  rec.down_mbps[PathId::kLte] = 4.5;
  rec.rtt_ms[PathId::kWifi] = 20.25;
  rec.rtt_ms[PathId::kLte] = 40.75;
  rec.mp_probed = true;
  rec.negotiated_mp = true;
  rec.achieved_mp = false;
  rec.fallback_reason = "join_rejected";
  rec.energy_j[PathId::kWifi] = 0.125;
  rec.energy_j[PathId::kLte] = 16.5;
  rec.scheduler = "Redundant";
  obs::SnapshotEntry retransmits;
  retransmits.name = "tcp.retransmits";
  retransmits.value = 3;
  rec.metrics.entries = {retransmits};
  EXPECT_EQ(hex_bytes(serialize_run_record(rec)),
            "030600000050696e6e656400000000002045400000000000e051c00100000000"
            "000000f83f00000000000004400000000000000c400000000000001240000000"
            "0000403440000000000060444000000000000101000d0000006a6f696e5f7265"
            "6a6563746564000000000000c03f000000000080304009000000526564756e64"
            "616e74010000000f0000007463702e72657472616e736d697473000300000000"
            "0000000000000000000000000000000000000000000000");
}

TEST(CampaignBytes, ScenarioKeysArePinned) {
  const CampaignOptions opt = pinned_campaign();
  const std::vector<RunPlan> plans = plan_campaign(table1_world(), opt);
  const auto first = [&](auto pred) {
    const auto it = std::find_if(plans.begin(), plans.end(), pred);
    EXPECT_NE(it, plans.end());
    return scenario_key(*it, opt).hex();
  };
  EXPECT_EQ(first([](const RunPlan& p) { return p.has_middlebox; }),
            "b3701df6d5cce546912ef4ac6058ab02");
  EXPECT_EQ(first([](const RunPlan& p) { return p.has_faults; }),
            "638bd6a86b334344477baf6b3547403a");
  EXPECT_EQ(first([](const RunPlan& p) { return p.skip[PathId::kWifi] || p.skip[PathId::kLte]; }),
            "49409e44dcc8e7202e469312d2438bb6");
}

}  // namespace
}  // namespace mn
