// RunStore: a durable, content-addressed cache of deterministic work
// units — the memoization layer under run_campaign, sweep_flow_sizes,
// and the chaos soak.
//
// A store is a directory of MNRS1 segment files (see segment.hpp).
// Opening maps every readable segment read-only (segment_view.hpp) and
// indexes its records as views into the mapping (later segments /
// later frames supersede earlier ones); put() appends to a fresh active
// segment with a flush per record and keeps the blob in an owned
// string that supersedes the views, so a killed campaign keeps
// everything it finished — re-running against the same store resumes
// with only the missing runs executing.  The store server
// (remote/server.hpp) is this same engine behind a poll loop.
//
// Corruption never escalates: a segment with an unknown magic/version
// is refused wholesale, a torn final frame is truncated away, a frame
// with a bad CRC is skipped — all of it surfaces only as cache misses
// plus the store.torn_frames counter.
//
// Concurrency: lookup()/put() are mutex-serialized, so the parallel
// execute phases can share one store.  Determinism is unaffected —
// results are assembled in plan order by the callers, and a key's blob
// is a pure function of the keyed inputs, so *which* worker wrote it
// first can never change a byte of output.
//
// Cross-process sharing (the fleet tier, see lockfile.hpp): every open
// RunStore holds `<dir>/store.lock` SHARED for its lifetime, new
// segment files are claimed with O_EXCL so two appenders can never
// clobber one another, and compact() upgrades to an EXCLUSIVE hold and
// re-censuses the directory from disk — records appended by *other*
// processes (which this handle never loaded) survive compaction.
// A compact attempted while another appender is alive throws
// StoreBusyError and modifies nothing.
//
// Observability: hits/misses/appended bytes/torn frames are recorded in
// an owned obs::MetricsRegistry (store.hits, store.misses,
// store.bytes_written, store.torn_frames, ...).  The store's snapshot is
// deliberately separate from the per-run metrics that merge_run_metrics
// folds — campaign output must stay byte-identical whether a run was
// simulated or replayed from cache.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "store/key.hpp"
#include "store/lockfile.hpp"
#include "store/segment.hpp"
#include "store/segment_view.hpp"
#include "store/store.hpp"

namespace mn::store {

class RunStore : public Store {
 public:
  /// Opens (creating the directory if needed) and maps every segment.
  /// Throws std::runtime_error when the directory cannot be created or
  /// a segment file cannot be opened or mapped at all (corrupt
  /// *content* is tolerated and counted instead).
  explicit RunStore(std::string dir);
  ~RunStore() override;
  RunStore(const RunStore&) = delete;
  RunStore& operator=(const RunStore&) = delete;

  /// The live blob for `key` as a view into a mapped segment or an
  /// owned put, or nullopt.  Counts nothing.  The view stays valid
  /// until compact() or destruction — later puts never move it.
  [[nodiscard]] std::optional<std::string_view> find(const ScenarioKey& key) const;

  /// Cached blob for `key` (a copy of find()), or nullopt.  Counts
  /// store.hits/store.misses.
  [[nodiscard]] std::optional<std::string> lookup(const ScenarioKey& key) override;

  /// Insert/overwrite `key` and append it durably to the active
  /// segment.  Safe to call concurrently with lookups and other puts.
  void put(const ScenarioKey& key, std::string_view blob) override;

  [[nodiscard]] bool contains(const ScenarioKey& key) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Every live (key, blob) pair, sorted by key — the deterministic
  /// iteration order used by compact() and the CLI dump.
  [[nodiscard]] std::vector<std::pair<ScenarioKey, std::string>> sorted_entries() const;

  /// Rewrite every live entry into one fresh sealed segment, delete the
  /// old files and reload: superseded duplicates and undecodable frames
  /// are dropped, disk usage shrinks to the live set.  Invalidates every
  /// view find() handed out.  Requires exclusive directory ownership —
  /// throws StoreBusyError (modifying nothing) while any other process
  /// holds the store open.  The census is taken from disk under the
  /// lock, so records appended by other processes are preserved;
  /// refused segments (foreign format versions) are left in place
  /// untouched.
  void compact();

  /// Seal the active segment (if any): subsequent puts open a new one.
  /// Called by the destructor; explicit sealing makes the on-disk state
  /// verify as fully indexed.
  void seal_active();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t puts = 0;
    std::uint64_t bytes_written = 0;   // appended this session (incl. framing)
    std::uint64_t torn_frames = 0;     // unusable frames seen at open/compact
    std::uint64_t entries = 0;         // live records
    std::uint64_t segments_loaded = 0; // readable segments: mapped at open
                                       // or compact, plus each one opened
                                       // for appending
    std::uint64_t segments_skipped = 0;  // refused: wrong magic/version
  };
  [[nodiscard]] Stats stats() const;

  /// The PR-4 registry view of the same counters (store.hits,
  /// store.misses, store.bytes_written, store.torn_frames, store.puts,
  /// plus store.entries / store.segments gauges), for exporters.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

 private:
  [[nodiscard]] std::optional<std::string_view> find_locked(const ScenarioKey& key) const;
  void load_locked();

  mutable std::mutex mu_;
  std::string dir_;
  FileLock dir_lock_;  // shared hold on store.lock for our lifetime
  std::vector<MappedSegment> segments_;  // readable segments, load order
  std::deque<std::string> owned_;  // this session's put blobs (stable addresses)
  // key -> live blob, a view into segments_ or owned_
  std::unordered_map<ScenarioKey, std::string_view, ScenarioKeyHash> index_;
  std::unique_ptr<SegmentWriter> writer_;
  Stats stats_;
};

/// Segment files of `dir` in load order (ascending segment number).
[[nodiscard]] std::vector<std::string> list_segment_files(const std::string& dir);

/// Atomically claim the next unused segment file name in `dir` via
/// O_EXCL creation: scans for the highest existing number and creates
/// the successor, retrying upward on EEXIST — two processes claiming
/// concurrently always get distinct files.  Returns the claimed path
/// (created empty; hand it to SegmentWriter).
[[nodiscard]] std::string claim_next_segment(const std::string& dir);

/// Integrity report over a store directory, without opening a RunStore
/// (pure read: the CLI's `verify`).
struct SegmentVerify {
  std::string file;  // basename of the segment file
  std::uint64_t records = 0;
  std::uint64_t torn_frames = 0;
  bool refused = false;  // bad magic / unknown version
  bool sealed = false;
  std::string note;  // reader's damage notes (offset of every bad frame)

  [[nodiscard]] bool damaged() const { return refused || torn_frames > 0; }
};

struct VerifyReport {
  std::uint64_t segments = 0;
  std::uint64_t sealed_segments = 0;
  std::uint64_t records = 0;
  std::uint64_t torn_frames = 0;
  std::uint64_t version_mismatches = 0;
  std::uint64_t truncated_bytes = 0;
  std::string text;  // one line per segment
  /// One entry per segment file, in load order — the structured form of
  /// `text`, so callers (the CLI's bad-frame summary, tests) can point
  /// at exactly which segments hold bad frames.
  std::vector<SegmentVerify> per_segment;

  [[nodiscard]] bool ok() const { return torn_frames == 0 && version_mismatches == 0; }
};
[[nodiscard]] VerifyReport verify_store(const std::string& dir);

}  // namespace mn::store
