// store::memoized_map — the one executor behind run_campaign,
// sweep_flow_sizes and run_chaos_soak — against an in-memory fake store
// that records every call: which callbacks run, in what order puts land,
// and that the output is index-ordered at any parallelism.
#include "store/memoize.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mn {
namespace {

using store::ScenarioKey;

/// In-memory Store that records every lookup_many and put.
class FakeStore : public store::Store {
 public:
  std::optional<std::string> lookup(const ScenarioKey& key) override {
    const auto it = blobs.find(key);
    if (it == blobs.end()) return std::nullopt;
    return it->second;
  }
  void put(const ScenarioKey& key, std::string_view blob) override {
    puts.push_back(key);
    blobs[key] = std::string{blob};
  }
  std::vector<std::optional<std::string>> lookup_many(
      const std::vector<ScenarioKey>& keys) override {
    ++lookup_many_calls;
    return Store::lookup_many(keys);
  }

  std::map<ScenarioKey, std::string> blobs;
  std::vector<ScenarioKey> puts;
  int lookup_many_calls = 0;
};

ScenarioKey unit_key(std::size_t i) { return store::KeyBuilder{"memoize-test"}.u64(i).finish(); }

std::int64_t unit_value(std::size_t i) { return static_cast<std::int64_t>(i * i) + 7; }

/// The four callbacks of one memoized_map call, each counting its calls
/// (atomics: run executes on pool workers).
struct Units {
  std::atomic<int> keys{0};
  std::atomic<int> runs{0};
  std::atomic<int> encodes{0};
  std::atomic<int> decodes{0};

  std::vector<std::int64_t> map(std::size_t n, store::Store* s, int parallelism) {
    return store::memoized_map(
        n, s, parallelism,
        [&](std::size_t i) {
          ++keys;
          return unit_key(i);
        },
        [&](std::size_t i) {
          ++runs;
          return unit_value(i);
        },
        [&](std::int64_t v) {
          ++encodes;
          return "v=" + std::to_string(v);
        },
        [&](std::string_view blob) {
          ++decodes;
          if (blob.substr(0, 2) != "v=") throw std::runtime_error("not a unit blob");
          return static_cast<std::int64_t>(std::stoll(std::string{blob.substr(2)}));
        });
  }
};

std::vector<std::int64_t> expected(std::size_t n) {
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(unit_value(i));
  return out;
}

std::vector<ScenarioKey> keys_of(const std::vector<std::size_t>& indices) {
  std::vector<ScenarioKey> out;
  for (std::size_t i : indices) out.push_back(unit_key(i));
  return out;
}

constexpr std::size_t kUnits = 12;

TEST(MemoizedMap, NullStoreRunsEveryUnitAndNothingElse) {
  Units units;
  EXPECT_EQ(units.map(kUnits, nullptr, 0), expected(kUnits));
  EXPECT_EQ(units.runs.load(), static_cast<int>(kUnits));
  EXPECT_EQ(units.keys.load(), 0);
  EXPECT_EQ(units.encodes.load(), 0);
  EXPECT_EQ(units.decodes.load(), 0);
}

TEST(MemoizedMap, ColdPutsEveryUnitInIndexOrder) {
  FakeStore fake;
  Units units;
  EXPECT_EQ(units.map(kUnits, &fake, 0), expected(kUnits));
  EXPECT_EQ(fake.lookup_many_calls, 1);
  EXPECT_EQ(units.runs.load(), static_cast<int>(kUnits));
  EXPECT_EQ(units.decodes.load(), 0);
  std::vector<std::size_t> all(kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) all[i] = i;
  EXPECT_EQ(fake.puts, keys_of(all));
}

TEST(MemoizedMap, WarmNeverRunsAndNeverPuts) {
  FakeStore fake;
  Units cold;
  (void)cold.map(kUnits, &fake, 0);
  fake.puts.clear();

  Units warm;
  EXPECT_EQ(warm.map(kUnits, &fake, 0), expected(kUnits));
  EXPECT_EQ(fake.lookup_many_calls, 2);
  EXPECT_EQ(warm.runs.load(), 0);
  EXPECT_EQ(warm.encodes.load(), 0);
  EXPECT_EQ(warm.decodes.load(), static_cast<int>(kUnits));
  EXPECT_TRUE(fake.puts.empty());
}

TEST(MemoizedMap, UndecodableBlobReRunsAndIsSuperseded) {
  FakeStore fake;
  Units cold;
  (void)cold.map(kUnits, &fake, 0);
  fake.blobs[unit_key(5)] = "junk that is not a unit blob";
  fake.puts.clear();

  Units poisoned;
  EXPECT_EQ(poisoned.map(kUnits, &fake, 0), expected(kUnits));
  EXPECT_EQ(poisoned.runs.load(), 1);  // only the junk unit re-ran
  EXPECT_EQ(fake.puts, keys_of({5}));
  EXPECT_EQ(fake.blobs[unit_key(5)], "v=" + std::to_string(unit_value(5)));

  fake.puts.clear();
  Units again;
  EXPECT_EQ(again.map(kUnits, &fake, 0), expected(kUnits));
  EXPECT_EQ(again.runs.load(), 0);
  EXPECT_TRUE(fake.puts.empty());
}

// Named for the TSan job's 'Parallel' filter: this is the shared
// parallel cache path of every cache-aware driver.
TEST(MemoizedMap, ParallelOutputIsIndexOrderedAndMatchesSerial) {
  for (int parallelism : {0, 4}) {
    Units storeless;
    EXPECT_EQ(storeless.map(kUnits, nullptr, parallelism), expected(kUnits))
        << "parallelism=" << parallelism;

    // Mixed cache: even units are hits, so the misses are scattered and
    // their puts must still land in ascending index order.
    FakeStore fake;
    for (std::size_t i = 0; i < kUnits; i += 2) {
      fake.blobs[unit_key(i)] = "v=" + std::to_string(unit_value(i));
    }
    Units mixed;
    EXPECT_EQ(mixed.map(kUnits, &fake, parallelism), expected(kUnits))
        << "parallelism=" << parallelism;
    EXPECT_EQ(mixed.runs.load(), static_cast<int>(kUnits / 2));
    std::vector<std::size_t> odd;
    for (std::size_t i = 1; i < kUnits; i += 2) odd.push_back(i);
    EXPECT_EQ(fake.puts, keys_of(odd)) << "parallelism=" << parallelism;

    Units warm;
    EXPECT_EQ(warm.map(kUnits, &fake, parallelism), expected(kUnits))
        << "parallelism=" << parallelism;
    EXPECT_EQ(warm.runs.load(), 0);
  }
}

}  // namespace
}  // namespace mn
