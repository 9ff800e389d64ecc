#include "store/run_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace mn::store {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kSegmentPrefix = "seg-";
constexpr std::string_view kSegmentSuffix = ".mnrs";

/// seg-<number>.mnrs -> number, or nullopt for foreign files.
std::optional<std::uint64_t> segment_number(const std::string& filename) {
  if (filename.size() <= kSegmentPrefix.size() + kSegmentSuffix.size()) return std::nullopt;
  if (filename.rfind(kSegmentPrefix, 0) != 0) return std::nullopt;
  if (filename.substr(filename.size() - kSegmentSuffix.size()) != kSegmentSuffix) {
    return std::nullopt;
  }
  const std::string digits = filename.substr(
      kSegmentPrefix.size(), filename.size() - kSegmentPrefix.size() - kSegmentSuffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t n = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return n;
}

std::string segment_path_in(const std::string& dir, std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%06llu%s", std::string{kSegmentPrefix}.c_str(),
                static_cast<unsigned long long>(index), std::string{kSegmentSuffix}.c_str());
  return (fs::path(dir) / buf).string();
}

}  // namespace

std::string claim_next_segment(const std::string& dir) {
  // Start past the highest existing number, then O_EXCL upward: the
  // kernel arbitrates concurrent claimers, no lock needed.
  std::uint64_t next = 1;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (const auto n = segment_number(entry.path().filename().string())) {
      if (*n >= next) next = *n + 1;
    }
  }
  for (;; ++next) {
    const std::string path = segment_path_in(dir, next);
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
    if (fd >= 0) {
      ::close(fd);
      return path;
    }
    if (errno != EEXIST) {
      throw std::runtime_error("store: cannot claim segment " + path + ": " +
                               std::strerror(errno));
    }
  }
}

std::vector<std::string> list_segment_files(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> numbered;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (const auto n = segment_number(name)) numbered.emplace_back(*n, entry.path().string());
  }
  std::sort(numbered.begin(), numbered.end());
  std::vector<std::string> out;
  out.reserve(numbered.size());
  for (auto& [n, path] : numbered) out.push_back(std::move(path));
  return out;
}

RunStore::RunStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw std::runtime_error("store: cannot create directory " + dir_);
  // Shared hold for our lifetime: appenders/loaders coexist; a compactor
  // (exclusive) can never delete files while we load or append.
  dir_lock_ = FileLock::shared(store_lock_path(dir_));
  std::lock_guard<std::mutex> lock(mu_);
  load_locked();
}

RunStore::~RunStore() {
  try {
    seal_active();
  } catch (...) {
    // Best effort: an unsealed active segment still reads back fine.
  }
}

void RunStore::load_locked() {
  // Build aside, then commit: a segment that cannot be mapped throws
  // before the current views are dropped.
  std::vector<MappedSegment> segments;
  std::unordered_map<ScenarioKey, std::string_view, ScenarioKeyHash> index;
  std::uint64_t skipped = 0;
  std::uint64_t torn = 0;
  for (const std::string& path : list_segment_files(dir_)) {
    MappedSegment seg{path};
    if (seg.scan().version_mismatch) {
      ++skipped;
      continue;
    }
    torn += seg.scan().torn_frames;
    for (const ScanEntry& e : seg.scan().entries) {
      index[e.key] = seg.blob(e);  // later segments / frames supersede earlier
    }
    segments.push_back(std::move(seg));  // a move keeps the mapping in place
  }
  segments_ = std::move(segments);
  index_ = std::move(index);
  owned_.clear();
  stats_.segments_loaded = segments_.size();
  stats_.segments_skipped = skipped;
  stats_.torn_frames += torn;
  stats_.entries = index_.size();
}

std::optional<std::string_view> RunStore::find_locked(const ScenarioKey& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string_view> RunStore::find(const ScenarioKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_locked(key);
}

std::optional<std::string> RunStore::lookup(const ScenarioKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto blob = find_locked(key);
  if (!blob) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return std::string{*blob};
}

void RunStore::put(const ScenarioKey& key, std::string_view blob) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!writer_) {
    writer_ = std::make_unique<SegmentWriter>(claim_next_segment(dir_));
    ++stats_.segments_loaded;
  }
  stats_.bytes_written += writer_->append(key, blob);
  ++stats_.puts;
  // A superseded session blob stays in owned_: views of it may be live.
  index_[key] = owned_.emplace_back(blob);
  stats_.entries = index_.size();
}

bool RunStore::contains(const ScenarioKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(key) != index_.end();
}

std::size_t RunStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::vector<std::pair<ScenarioKey, std::string>> RunStore::sorted_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ScenarioKey, std::string>> out(index_.begin(), index_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void RunStore::seal_active() {
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_) {
    writer_->seal();
    writer_.reset();
  }
}

void RunStore::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_) {
    writer_->seal();
    writer_.reset();
  }
  // Exclusive directory ownership for the census + rewrite + delete.
  // Our own shared hold is released first — flock is per-description,
  // so we would otherwise wait on ourselves; it is restored (and the
  // store left untouched) on every exit path, including StoreBusyError.
  dir_lock_.release();
  FileLock excl;
  try {
    excl = FileLock::exclusive(store_lock_path(dir_));
  } catch (...) {
    dir_lock_ = FileLock::shared(store_lock_path(dir_));
    throw;
  }
  try {
    // Census from DISK, not from the current index: another process may
    // have appended records this handle never loaded, and every put of
    // our own is already flushed to our segments — so the on-disk state
    // is the complete live set.  Refused segments (foreign format
    // versions) are not in segments_, contribute nothing and are left on
    // disk untouched.
    load_locked();
    // Deterministic compact: live entries in key order, one sealed segment.
    std::vector<std::pair<ScenarioKey, std::string_view>> live(index_.begin(), index_.end());
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    {
      SegmentWriter writer{claim_next_segment(dir_)};
      for (const auto& [key, blob] : live) stats_.bytes_written += writer.append(key, blob);
      writer.seal();
    }
    for (const MappedSegment& seg : segments_) {
      std::error_code ec;
      fs::remove(seg.path(), ec);  // best effort: a leftover is re-read, not fatal
    }
    load_locked();  // the compacted segment, plus any refused ones
  } catch (...) {
    excl.release();
    dir_lock_ = FileLock::shared(store_lock_path(dir_));
    throw;
  }
  excl.release();
  dir_lock_ = FileLock::shared(store_lock_path(dir_));
}

RunStore::Stats RunStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

obs::MetricsSnapshot RunStore::metrics_snapshot() const {
  const Stats s = stats();
  // A throwaway registry keeps the export format identical to every
  // other metric source (sorted names, same text exposition).
  obs::MetricsRegistry reg;
  reg.add(reg.counter("store.hits"), static_cast<std::int64_t>(s.hits));
  reg.add(reg.counter("store.misses"), static_cast<std::int64_t>(s.misses));
  reg.add(reg.counter("store.puts"), static_cast<std::int64_t>(s.puts));
  reg.add(reg.counter("store.bytes_written"), static_cast<std::int64_t>(s.bytes_written));
  reg.add(reg.counter("store.torn_frames"), static_cast<std::int64_t>(s.torn_frames));
  reg.set(reg.gauge("store.entries"), static_cast<std::int64_t>(s.entries));
  reg.set(reg.gauge("store.segments"), static_cast<std::int64_t>(s.segments_loaded));
  return reg.snapshot();
}

VerifyReport verify_store(const std::string& dir) {
  VerifyReport report;
  for (const std::string& path : list_segment_files(dir)) {
    const MappedSegment seg{path};
    const SegmentScan& scan = seg.scan();
    ++report.segments;
    SegmentVerify sv;
    sv.file = fs::path(path).filename().string();
    sv.records = scan.entries.size();
    sv.torn_frames = scan.torn_frames;
    sv.refused = scan.version_mismatch;
    sv.sealed = scan.sealed;
    sv.note = scan.note;
    report.per_segment.push_back(sv);
    std::string line = sv.file + ": ";
    if (scan.version_mismatch) {
      ++report.version_mismatches;
      line += "REFUSED (" + scan.note + ")";
    } else {
      report.records += scan.entries.size();
      report.torn_frames += scan.torn_frames;
      report.truncated_bytes += scan.truncated_bytes;
      if (scan.sealed) ++report.sealed_segments;
      line += std::to_string(scan.entries.size()) + " record(s), " +
              (scan.sealed ? "sealed" : "unsealed");
      if (scan.torn_frames > 0) {
        line += ", " + std::to_string(scan.torn_frames) + " torn frame(s)";
      }
      if (!scan.note.empty()) line += " [" + scan.note + "]";
    }
    report.text += line + "\n";
  }
  return report;
}

}  // namespace mn::store
