#include "store/segment.hpp"

#include <stdexcept>

#include "store/codec.hpp"
#include "util/crc32.hpp"

namespace mn::store {
namespace {

constexpr std::size_t kHeaderBytes = 6 + 4;       // magic + version
constexpr std::size_t kFooterBytes = 8 + 4 + 8;   // index offset + crc + magic
constexpr std::size_t kRecordKeyBytes = 16;

std::uint32_t le_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]))
         << (i * 8);
  }
  return v;
}

std::uint64_t le_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]))
         << (i * 8);
  }
  return v;
}

/// Locate a valid footer; returns the index-frame offset or npos.
std::size_t find_index_offset(std::string_view data) {
  if (data.size() < kHeaderBytes + kFooterBytes) return std::string::npos;
  const std::size_t foot = data.size() - kFooterBytes;
  if (data.substr(foot + 12, 8) != kFooterMagic) return std::string::npos;
  if (crc32(data.substr(foot, 8)) != le_u32(data, foot + 8)) return std::string::npos;
  const std::uint64_t index_offset = le_u64(data, foot);
  if (index_offset < kHeaderBytes || index_offset >= foot) return std::string::npos;
  return static_cast<std::size_t>(index_offset);
}

}  // namespace

SegmentScan scan_segment(std::string_view data) {
  SegmentScan res;

  if (data.empty()) {
    // A claimed segment whose writer died before the header: nothing to
    // read, nothing wrong — the crash-tolerance contract of a torn tail.
    res.note = "empty segment (claimed, never written)";
    return res;
  }
  if (data.size() < kHeaderBytes || data.substr(0, 6) != kSegmentMagic) {
    res.version_mismatch = true;
    res.note = "not an MNRS1 segment";
    return res;
  }
  if (const std::uint32_t version = le_u32(data, 6); version != kSegmentFormatVersion) {
    res.version_mismatch = true;
    res.note = "unknown MNRS1 format version " + std::to_string(version);
    return res;
  }

  const std::size_t index_offset = find_index_offset(data);
  const bool has_footer = index_offset != std::string::npos;
  // Frames end where the index frame begins (sealed) or at EOF (active).
  const std::size_t frame_end = has_footer ? index_offset : data.size();
  std::uint64_t indexed_records = 0;

  std::size_t pos = kHeaderBytes;
  while (pos < frame_end) {
    if (frame_end - pos < kFrameHeaderBytes) {
      // Torn mid-header: truncate to the last valid frame.
      ++res.torn_frames;
      res.truncated_bytes = frame_end - pos;
      res.note += "torn frame header at offset " + std::to_string(pos) + "; ";
      break;
    }
    const std::uint32_t len = le_u32(data, pos);
    const auto type = static_cast<std::uint8_t>(data[pos + 8]);
    const bool plausible =
        len <= kMaxFramePayload && len <= frame_end - pos - kFrameHeaderBytes &&
        (type == static_cast<std::uint8_t>(FrameType::kRecord) ||
         type == static_cast<std::uint8_t>(FrameType::kIndex));
    if (!plausible) {
      // The length itself is untrustworthy: everything from here on is
      // unreachable.  Truncate (the crash-mid-append case lands here).
      ++res.torn_frames;
      res.truncated_bytes = frame_end - pos;
      res.note += "implausible frame at offset " + std::to_string(pos) + "; ";
      break;
    }
    const std::string_view payload{data.data() + pos + kFrameHeaderBytes, len};
    if (crc32(payload) != le_u32(data, pos + 4)) {
      // Payload damaged but the header still frames it: skip exactly
      // this frame and resynchronize on the next boundary.
      ++res.torn_frames;
      res.note += "bad CRC at offset " + std::to_string(pos) + "; ";
      pos += kFrameHeaderBytes + len;
      continue;
    }
    if (type == static_cast<std::uint8_t>(FrameType::kRecord)) {
      if (len < kRecordKeyBytes) {
        ++res.torn_frames;
        res.note += "short record at offset " + std::to_string(pos) + "; ";
      } else {
        ScanEntry e;
        e.key.hi = le_u64(data, pos + kFrameHeaderBytes);
        e.key.lo = le_u64(data, pos + kFrameHeaderBytes + 8);
        e.offset = pos;
        e.blob_offset = pos + kFrameHeaderBytes + kRecordKeyBytes;
        e.blob_len = len - kRecordKeyBytes;
        res.entries.push_back(e);
      }
    }
    // Stray index frames before the footer's one carry no records; skip.
    pos += kFrameHeaderBytes + len;
  }

  if (has_footer) {
    // Cross-check the footer index against the scan.
    bool index_ok = false;
    if (data.size() - index_offset >= kFrameHeaderBytes) {
      const std::uint32_t len = le_u32(data, index_offset);
      const auto type = static_cast<std::uint8_t>(data[index_offset + 8]);
      if (type == static_cast<std::uint8_t>(FrameType::kIndex) &&
          len <= data.size() - index_offset - kFrameHeaderBytes) {
        const std::string_view payload{data.data() + index_offset + kFrameHeaderBytes, len};
        if (crc32(payload) == le_u32(data, index_offset + 4) && len >= 8) {
          indexed_records = le_u64(data, index_offset + kFrameHeaderBytes);
          index_ok = true;
        }
      }
    }
    if (index_ok && indexed_records == res.entries.size() && res.torn_frames == 0) {
      res.sealed = true;
    } else if (index_ok) {
      res.note += "sealed index lists " + std::to_string(indexed_records) + " records, " +
                  std::to_string(res.entries.size()) + " readable; ";
      if (indexed_records != res.entries.size()) ++res.torn_frames;
    } else {
      ++res.torn_frames;
      res.note += "footer present but index frame unreadable; ";
    }
  }
  return res;
}

SegmentWriter::SegmentWriter(std::string path) : path_(std::move(path)) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("store segment: cannot create " + path_);
  out_.write(kSegmentMagic.data(), static_cast<std::streamsize>(kSegmentMagic.size()));
  BinWriter header;
  header.put_u32(kSegmentFormatVersion);
  out_.write(header.bytes().data(), static_cast<std::streamsize>(header.bytes().size()));
  out_.flush();
  if (!out_) throw std::runtime_error("store segment: write failed on " + path_);
  offset_ = kHeaderBytes;
  bytes_written_ = kHeaderBytes;
}

SegmentWriter::~SegmentWriter() {
  try {
    seal();
  } catch (...) {
    // Destructor best-effort: an unsealed segment is still fully
    // readable via the scan path.
  }
}

void SegmentWriter::write_frame(FrameType type, std::string_view payload) {
  BinWriter header;
  header.put_u32(static_cast<std::uint32_t>(payload.size()));
  header.put_u32(crc32(payload));
  header.put_u8(static_cast<std::uint8_t>(type));
  out_.write(header.bytes().data(), static_cast<std::streamsize>(header.bytes().size()));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out_.flush();
  if (!out_) throw std::runtime_error("store segment: write failed on " + path_);
  offset_ += kFrameHeaderBytes + payload.size();
  bytes_written_ += kFrameHeaderBytes + payload.size();
}

std::uint64_t SegmentWriter::append(const ScenarioKey& key, std::string_view blob) {
  if (sealed_) throw std::logic_error("store segment: append after seal");
  if (blob.size() > kMaxFramePayload - kRecordKeyBytes) {
    throw std::length_error("store segment: record blob too large");
  }
  const std::uint64_t frame_offset = offset_;
  BinWriter payload;
  payload.put_u64(key.hi);
  payload.put_u64(key.lo);
  std::string bytes = payload.take();
  bytes.append(blob.data(), blob.size());
  write_frame(FrameType::kRecord, bytes);
  index_.push_back({key, frame_offset});
  return kFrameHeaderBytes + bytes.size();
}

void SegmentWriter::seal() {
  if (sealed_) return;
  sealed_ = true;
  const std::uint64_t index_offset = offset_;
  BinWriter payload;
  payload.put_u64(index_.size());
  for (const IndexEntry& e : index_) {
    payload.put_u64(e.key.hi);
    payload.put_u64(e.key.lo);
    payload.put_u64(e.offset);
  }
  write_frame(FrameType::kIndex, payload.bytes());
  BinWriter footer;
  footer.put_u64(index_offset);
  footer.put_u32(crc32(footer.bytes()));  // crc over the 8 offset bytes
  std::string foot = footer.take();
  foot.append(kFooterMagic.data(), kFooterMagic.size());
  out_.write(foot.data(), static_cast<std::streamsize>(foot.size()));
  out_.flush();
  if (!out_) throw std::runtime_error("store segment: write failed on " + path_);
  bytes_written_ += foot.size();
  out_.close();
}

}  // namespace mn::store
