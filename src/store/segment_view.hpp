// Read-only mmap'd views of MNRS1 segment files.
//
// The one way the store reads a segment: RunStore (and so the store
// server, which serves a RunStore), compact() and verify_store() all
// map segments instead of copying them.  Blobs are handed out as
// string_views into the mapping, straight out of the page cache, so a
// multi-GB store costs address space, not heap.  The view is a snapshot
// of the file length at map time — an appender growing the file
// afterwards is invisible, and a writer that died mid-frame shows up as
// the usual torn tail.  Both are exactly the tolerance scan_segment
// already implements: a MappedSegment is scan_segment over mapped bytes.
//
// Safety: the mapping must outlive every view handed out (a RunStore
// owns its MappedSegments until compact() or destruction).  The store
// only ever appends to a segment it claimed and removes files by
// unlink, never truncating or rewriting one in place: a truncated
// mapping would fault on access.  Compaction by another handle is
// excluded by the shared flock, and an unlinked file stays mapped.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "store/segment.hpp"

namespace mn::store {

class MappedSegment {
 public:
  /// Maps `path` read-only and scans it.  Throws std::runtime_error
  /// when the file cannot be opened or mapped; corrupt *content* is
  /// tolerated and reported by scan() like everywhere else.
  explicit MappedSegment(std::string path);
  ~MappedSegment();
  MappedSegment(MappedSegment&& other) noexcept;
  MappedSegment& operator=(MappedSegment&& other) noexcept;
  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string_view data() const {
    return {static_cast<const char*>(base_), size_};
  }
  [[nodiscard]] const SegmentScan& scan() const { return scan_; }

  /// The blob bytes of one scanned entry, zero-copy into the mapping.
  [[nodiscard]] std::string_view blob(const ScanEntry& e) const {
    return data().substr(static_cast<std::size_t>(e.blob_offset),
                         static_cast<std::size_t>(e.blob_len));
  }

 private:
  void unmap();

  std::string path_;
  void* base_ = nullptr;
  std::size_t size_ = 0;
  SegmentScan scan_;
};

}  // namespace mn::store
