// The scheduler sweep through the campaign: the mp_scheduler knob
// selects the policy per probe, the energy/scheduler columns round-trip
// CSV and the record blob (v3), the knob keys middlebox scenarios (and
// leaves legacy keys alone), the determinism contracts hold (parallel
// golden, cold/warm/resumed caches), and a checked-in pre-PR7 v2 blob
// still parses with energy fields defaulted.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "measure/campaign.hpp"
#include "store/run_store.hpp"

namespace mn {
namespace {

namespace fs = std::filesystem;

std::vector<ClusterSpec> tiny_world() {
  return {make_cluster("FastWiFi", {40.0, -70.0}, 12, 0.10, 14.0),
          make_cluster("FastLTE", {10.0, 100.0}, 12, 0.85, 4.0)};
}

CampaignOptions scheduler_campaign(MpScheduler s) {
  CampaignOptions opt;
  opt.run_scale = 0.25;  // 6 runs
  opt.incomplete_probability = 0.0;
  opt.transfer_bytes = 300'000;
  opt.mp_probe_bytes = 150'000;
  // A vanishing strip probability enables the multipath probe (0.0
  // disables it) without making any middlebox hostile.
  opt.middlebox_strip_probability = 1e-9;
  opt.mp_scheduler = s;
  return opt;
}

std::string campaign_bytes(const std::vector<RunRecord>& runs) {
  return to_csv(runs).str() + "\n===\n" + merge_run_metrics(runs).prometheus_text();
}

TEST(SchedulerCampaign, SweepPopulatesEnergyAndSchedulerColumns) {
  for (int i = 0; i < kMpSchedulerCount; ++i) {
    const auto s = static_cast<MpScheduler>(i);
    const auto runs = run_campaign(tiny_world(), scheduler_campaign(s));
    for (const auto& r : runs) {
      ASSERT_TRUE(r.mp_probed);
      EXPECT_EQ(r.scheduler, to_string(s));
      // Every probe moved real bytes over WiFi; the radio model charges
      // at least one burst + tail for that.
      EXPECT_GT(r.energy_j[PathId::kWifi], 0.0) << to_string(s);
      EXPECT_GE(r.energy_j[PathId::kLte], 0.0) << to_string(s);
    }
  }
}

TEST(SchedulerCampaign, KnobIsInertWithoutMultipathProbes) {
  // With the probe disabled the scheduler knob must not leak into the
  // dataset (columns empty) nor into the cache keys (legacy contract).
  CampaignOptions opt = scheduler_campaign(MpScheduler::kEnergyAware);
  opt.middlebox_strip_probability = 0.0;
  const auto runs = run_campaign(tiny_world(), opt);
  for (const auto& r : runs) {
    EXPECT_FALSE(r.mp_probed);
    EXPECT_TRUE(r.scheduler.empty());
  }
  const auto data = parse_csv(to_csv(runs).str());
  const auto c_e = data.col("m_energy_wifi_j");
  const auto c_s = data.col("scheduler");
  for (const auto& row : data.rows) {
    EXPECT_EQ(row[c_e], "");
    EXPECT_EQ(row[c_s], "");
  }
}

TEST(SchedulerCampaign, CsvRoundTripsEnergyColumns) {
  const auto runs = complete_runs(
      run_campaign(tiny_world(), scheduler_campaign(MpScheduler::kEnergyAware)));
  ASSERT_FALSE(runs.empty());
  const auto back = from_csv(parse_csv(to_csv(runs).str()));
  ASSERT_EQ(back.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(back[i].energy_j[PathId::kWifi], runs[i].energy_j[PathId::kWifi]);
    EXPECT_EQ(back[i].energy_j[PathId::kLte], runs[i].energy_j[PathId::kLte]);
    EXPECT_EQ(back[i].scheduler, runs[i].scheduler);
  }
  // format_double emits the shortest round-trip form, so a second pass
  // through the CSV is byte-identical — energy columns included.
  EXPECT_EQ(to_csv(back).str(), to_csv(runs).str());
}

TEST(SchedulerCampaign, RunRecordBlobRoundTripsEnergyFields) {
  for (const auto& r :
       run_campaign(tiny_world(), scheduler_campaign(MpScheduler::kTailBatch))) {
    const RunRecord back = parse_run_record(serialize_run_record(r));
    EXPECT_EQ(back.energy_j[PathId::kWifi], r.energy_j[PathId::kWifi]);
    EXPECT_EQ(back.energy_j[PathId::kLte], r.energy_j[PathId::kLte]);
    EXPECT_EQ(back.scheduler, r.scheduler);
    EXPECT_EQ(back.mp_probed, r.mp_probed);
  }
}

TEST(SchedulerCampaign, SchedulerKeysTheScenario) {
  // Different policies simulate different packet schedules: they must
  // never share cache entries.  Same policy, same key (pure function).
  const auto lr = scheduler_campaign(MpScheduler::kLowestRtt);
  const auto ea = scheduler_campaign(MpScheduler::kEnergyAware);
  const auto p_lr = plan_campaign(tiny_world(), lr);
  const auto p_ea = plan_campaign(tiny_world(), ea);
  ASSERT_EQ(p_lr.size(), p_ea.size());
  EXPECT_NE(scenario_key(p_lr[0], lr), scenario_key(p_ea[0], ea));
  EXPECT_EQ(scenario_key(p_lr[0], lr),
            scenario_key(plan_campaign(tiny_world(), lr)[0], lr));

  // Legacy (no-probe) plans predate the knob; their keys must not move
  // when it changes, or every pre-PR7 cache would be invalidated.
  CampaignOptions legacy_a = lr;
  legacy_a.middlebox_strip_probability = 0.0;
  CampaignOptions legacy_b = ea;
  legacy_b.middlebox_strip_probability = 0.0;
  EXPECT_EQ(scenario_key(plan_campaign(tiny_world(), legacy_a)[0], legacy_a),
            scenario_key(plan_campaign(tiny_world(), legacy_b)[0], legacy_b));
}

// Golden parallel-vs-serial: a scheduler-sweep campaign's observable
// output is byte-identical for every worker count (MN_THREADS contract).
TEST(SchedulerCampaign, ParallelAndSerialAreByteIdentical) {
  for (MpScheduler s : {MpScheduler::kEnergyAware, MpScheduler::kRedundant}) {
    CampaignOptions opt = scheduler_campaign(s);
    opt.parallelism = 0;
    const std::string golden = campaign_bytes(run_campaign(tiny_world(), opt));
    for (int workers : {1, 4}) {
      opt.parallelism = workers;
      EXPECT_EQ(campaign_bytes(run_campaign(tiny_world(), opt)), golden)
          << to_string(s) << " workers=" << workers;
    }
  }
}

// Cold/warm/resumed store caches reproduce the storeless golden bytes
// for a scheduler-sweep campaign — energy values survive the blob.
TEST(SchedulerCampaign, ColdWarmAndResumedCachesAreByteIdentical) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "scheduler_campaign_cache";
  fs::remove_all(dir);
  CampaignOptions opt = scheduler_campaign(MpScheduler::kEnergyAware);
  opt.parallelism = 0;
  const std::string golden = campaign_bytes(run_campaign(tiny_world(), opt));
  const auto plans = plan_campaign(tiny_world(), opt);
  ASSERT_GE(plans.size(), 4u);

  {
    store::RunStore store{dir.string()};
    opt.store = &store;
    const auto cold = run_campaign(tiny_world(), opt);
    EXPECT_EQ(campaign_bytes(cold), golden) << "cold";
    EXPECT_EQ(store.stats().hits, 0u);

    const auto warm = run_campaign(tiny_world(), opt);
    EXPECT_EQ(campaign_bytes(warm), golden) << "warm";
    EXPECT_EQ(store.stats().hits, warm.size());
    opt.store = nullptr;
  }

  fs::remove_all(dir);
  {
    store::RunStore half{dir.string()};
    for (std::size_t i = 0; i < plans.size() / 2; ++i) {
      half.put(scenario_key(plans[i], opt),
               serialize_run_record(execute_run(plans[i], opt)));
    }
  }
  store::RunStore store{dir.string()};
  opt.store = &store;
  const auto resumed = run_campaign(tiny_world(), opt);
  EXPECT_EQ(campaign_bytes(resumed), golden) << "resumed";
  EXPECT_EQ(store.stats().hits, plans.size() / 2);
  EXPECT_EQ(store.stats().misses, plans.size() - plans.size() / 2);
  fs::remove_all(dir);
}

// A pre-PR7 cache holds version-2 blobs: no energy fields, no scheduler
// string.  The checked-in fixture (written by the v2 serializer) must
// parse forever, with the new fields at their documented defaults.
TEST(SchedulerCampaign, PrePr7V2BlobParsesWithEnergyDefaults) {
  const fs::path p = fs::path(MN_TEST_DATA_DIR) / "measure" /
                     "pre_pr7_run_record_v2.bin";
  std::ifstream in{p, std::ios::binary};
  ASSERT_TRUE(in.is_open()) << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();
  ASSERT_FALSE(blob.empty());
  ASSERT_EQ(static_cast<unsigned char>(blob[0]), 2u) << "fixture is not v2";

  const RunRecord rec = parse_run_record(blob);
  EXPECT_EQ(rec.cluster, "FixtureTown");
  EXPECT_DOUBLE_EQ(rec.pos.lat_deg, 40.5);
  EXPECT_DOUBLE_EQ(rec.pos.lon_deg, -73.25);
  EXPECT_TRUE(rec.mp_probed);
  EXPECT_TRUE(rec.negotiated_mp);
  EXPECT_TRUE(rec.achieved_mp);
  EXPECT_EQ(rec.metrics.value_of("tcp.retransmits"), 3);
  // The v3 additions default: zero joules, empty scheduler.
  EXPECT_EQ(rec.energy_j[PathId::kWifi], 0.0);
  EXPECT_EQ(rec.energy_j[PathId::kLte], 0.0);
  EXPECT_TRUE(rec.scheduler.empty());

  // And a record round-tripped today re-serializes as v3.
  const std::string v3 = serialize_run_record(rec);
  EXPECT_EQ(static_cast<unsigned char>(v3[0]), 3u);
  const RunRecord again = parse_run_record(v3);
  EXPECT_EQ(again.cluster, rec.cluster);
  EXPECT_EQ(again.scheduler, rec.scheduler);
}

}  // namespace
}  // namespace mn
