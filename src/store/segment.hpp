// MNRS1: the result store's append-only segment file format.
//
// Layout:
//
//   header   "MNRS1\n" (6 bytes) + u32 format version
//   frames   repeated: u32 payload_len | u32 crc32(payload) | u8 type
//            | payload
//     kRecord payload: key.hi u64 | key.lo u64 | blob bytes
//     kIndex  payload: u64 count, then per record frame in file order:
//             key.hi u64 | key.lo u64 | u64 frame offset
//   footer   (sealed segments only, written by seal()):
//            u64 index_frame_offset | u32 crc32(those 8 bytes)
//            | "MNRSIDX\n" (8 bytes)
//
// Crash semantics: appends go frame-at-a-time with a flush after each,
// so a killed process loses at most the frame being written.  Readers
// tolerate that torn final frame by truncating to the last valid frame;
// a frame whose CRC fails mid-file is skipped (resynchronizing on its
// length header when plausible) and counted.  Either way the reader
// returns every decodable record and a torn-frame count — corruption
// degrades the cache hit rate, never the process.
//
// A sealed segment (clean close or compact()) carries the footer index:
// readers then know the exact record census and treat any mismatch as
// corruption rather than a mere torn tail.  Files whose magic or format
// version is unknown are refused wholesale (clean skip upstream): a
// future MNRS2 must never be half-read as MNRS1.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "store/key.hpp"

namespace mn::store {

inline constexpr std::string_view kSegmentMagic = "MNRS1\n";
inline constexpr std::string_view kFooterMagic = "MNRSIDX\n";
inline constexpr std::uint32_t kSegmentFormatVersion = 1;
/// Frame header: payload_len + crc + type.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1;
/// Sanity bound on one frame's payload — a "length" beyond this is
/// corruption, not a record.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t { kRecord = 1, kIndex = 2 };

/// One decodable record located (not copied) by scan_segment: the blob
/// is a [blob_offset, blob_offset + blob_len) slice of the scanned
/// buffer.  The basis of the zero-copy mmap views (segment_view.hpp),
/// the only way the store reads a segment file.
struct ScanEntry {
  ScenarioKey key;
  std::uint64_t offset = 0;       // frame offset in the buffer
  std::uint64_t blob_offset = 0;  // blob bytes start here
  std::uint64_t blob_len = 0;
};

struct SegmentScan {
  std::vector<ScanEntry> entries;  // decodable records, buffer order
  bool sealed = false;             // valid footer index present
  bool version_mismatch = false;   // bad magic / unknown version: refused
  std::uint64_t torn_frames = 0;   // frames dropped (bad CRC, torn tail,
                                   // bad type, index mismatch)
  std::uint64_t truncated_bytes = 0;  // bytes past the last readable frame
  std::string note;                   // human-readable diagnostics
};

/// Scan one segment *buffer* (an mmap'd view of the file, or in tests
/// the whole file read into memory) with full corruption tolerance:
/// torn tails truncate, bad-CRC frames skip, foreign magics refuse.
/// Never throws on corrupt content — that is what the result reports.
/// An empty buffer is a *claimed-but-never-written* segment (a writer
/// died between O_EXCL claim and header write): zero records, not
/// damage, not a refusal.
[[nodiscard]] SegmentScan scan_segment(std::string_view data);

/// Appending writer.  Creates the file with a fresh header; append()
/// flushes each frame so a crash loses at most the in-flight record.
class SegmentWriter {
 public:
  explicit SegmentWriter(std::string path);
  ~SegmentWriter();
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Append one record frame; returns its encoded size in bytes.
  std::uint64_t append(const ScenarioKey& key, std::string_view blob);

  /// Write the index frame + footer and close.  Idempotent; called by
  /// the destructor if the caller did not seal explicitly.
  void seal();

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t records() const { return index_.size(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct IndexEntry {
    ScenarioKey key;
    std::uint64_t offset;
  };

  void write_frame(FrameType type, std::string_view payload);

  std::string path_;
  std::ofstream out_;
  std::uint64_t offset_ = 0;  // current end-of-file offset
  std::uint64_t bytes_written_ = 0;
  std::vector<IndexEntry> index_;
  bool sealed_ = false;
};

}  // namespace mn::store
