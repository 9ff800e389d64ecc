// MNRS1 corruption suite: every way a segment file can be damaged must
// degrade into skipped frames or a refused file — decodable records
// always survive, and nothing is ever undefined behaviour (this suite
// runs under ASan/UBSan in CI).  Files are scanned with scan_segment
// over their whole bytes, the scan every store reader runs.
#include "store/segment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace mn::store {
namespace {

namespace fs = std::filesystem;

class SegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("mnrs1_" + std::string{::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()});
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  static void spit(const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  /// A whole segment file and its scan; blob(i) copies record i out.
  struct Scanned {
    std::string bytes;
    SegmentScan scan;
    [[nodiscard]] std::string blob(std::size_t i) const {
      const ScanEntry& e = scan.entries.at(i);
      return bytes.substr(e.blob_offset, e.blob_len);
    }
  };
  static Scanned scan_file(const std::string& p) {
    Scanned s{slurp(p), {}};
    s.scan = scan_segment(s.bytes);
    return s;
  }

  /// A sealed three-record segment; returns the record keys.
  std::vector<ScenarioKey> write_sample(const std::string& p) {
    std::vector<ScenarioKey> keys{{1, 10}, {2, 20}, {3, 30}};
    SegmentWriter w{p};
    w.append(keys[0], "alpha");
    w.append(keys[1], "bravo-bravo");
    w.append(keys[2], "charlie");
    w.seal();
    return keys;
  }

  fs::path dir_;
};

TEST_F(SegmentTest, RoundTripSealed) {
  const auto keys = write_sample(path("a.mnrs"));
  const Scanned r = scan_file(path("a.mnrs"));
  EXPECT_TRUE(r.scan.sealed);
  EXPECT_FALSE(r.scan.version_mismatch);
  EXPECT_EQ(r.scan.torn_frames, 0u);
  ASSERT_EQ(r.scan.entries.size(), 3u);
  EXPECT_EQ(r.scan.entries[0].key, keys[0]);
  EXPECT_EQ(r.blob(0), "alpha");
  EXPECT_EQ(r.blob(1), "bravo-bravo");
  EXPECT_EQ(r.blob(2), "charlie");
}

TEST_F(SegmentTest, UnsealedActiveSegmentReadsEveryRecord) {
  write_sample(path("a.mnrs"));
  // Strip the footer: what an active (never-sealed) segment looks like.
  std::string bytes = slurp(path("a.mnrs"));
  bytes.resize(bytes.size() - 20);  // footer only; index frame remains as data
  spit(path("a.mnrs"), bytes);
  const Scanned r = scan_file(path("a.mnrs"));
  EXPECT_FALSE(r.scan.sealed);
  EXPECT_EQ(r.scan.torn_frames, 0u);
  EXPECT_EQ(r.scan.entries.size(), 3u);  // stray index frame carries no records
}

TEST_F(SegmentTest, TornFinalFrameIsTruncatedAway) {
  // Simulate a crash mid-append: records then a torn partial frame.
  {
    SegmentWriter w{path("a.mnrs")};
    w.append({1, 10}, "alpha");
    w.append({2, 20}, "bravo");
    // Leave unsealed: the destructor would seal, so release it first.
    w.seal();
  }
  std::string bytes = slurp(path("a.mnrs"));
  bytes.resize(bytes.size() - 20);        // drop footer (active segment)
  bytes.resize(bytes.size() - 3);         // tear into the index frame
  spit(path("a.mnrs"), bytes);
  const Scanned r = scan_file(path("a.mnrs"));
  EXPECT_FALSE(r.scan.sealed);
  EXPECT_EQ(r.scan.entries.size(), 2u);
  EXPECT_GE(r.scan.torn_frames, 1u);
  EXPECT_GT(r.scan.truncated_bytes, 0u);
}

TEST_F(SegmentTest, FlippedCrcByteSkipsExactlyThatFrame) {
  write_sample(path("a.mnrs"));
  std::string bytes = slurp(path("a.mnrs"));
  // Flip one payload byte of the second record ("bravo-bravo").  Frame 1
  // starts at header(10) + frame0(9+16+5); its payload begins 9+16 later.
  const std::size_t frame1 = 10 + 9 + 16 + 5;
  const std::size_t victim = frame1 + 9 + 16 + 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  spit(path("a.mnrs"), bytes);
  const Scanned r = scan_file(path("a.mnrs"));
  EXPECT_FALSE(r.scan.sealed);  // census mismatch: 3 indexed, 2 readable
  ASSERT_EQ(r.scan.entries.size(), 2u);
  EXPECT_EQ(r.blob(0), "alpha");
  EXPECT_EQ(r.blob(1), "charlie");  // resynchronized past the bad frame
  EXPECT_GE(r.scan.torn_frames, 1u);
}

TEST_F(SegmentTest, ImplausibleLengthTruncatesTheRest) {
  write_sample(path("a.mnrs"));
  std::string bytes = slurp(path("a.mnrs"));
  bytes.resize(bytes.size() - 20);  // unsealed, so the scan trusts lengths only
  const std::size_t frame1 = 10 + 9 + 16 + 5;
  bytes[frame1 + 3] = static_cast<char>(0xFF);  // len explodes past the file
  spit(path("a.mnrs"), bytes);
  const Scanned r = scan_file(path("a.mnrs"));
  ASSERT_EQ(r.scan.entries.size(), 1u);
  EXPECT_EQ(r.blob(0), "alpha");
  EXPECT_GE(r.scan.torn_frames, 1u);
}

TEST_F(SegmentTest, WrongMagicAndWrongVersionAreRefused) {
  write_sample(path("a.mnrs"));
  std::string bytes = slurp(path("a.mnrs"));
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  spit(path("m.mnrs"), wrong_magic);
  EXPECT_TRUE(scan_file(path("m.mnrs")).scan.version_mismatch);

  std::string wrong_version = bytes;
  wrong_version[6] = 9;  // version little-endian low byte
  spit(path("v.mnrs"), wrong_version);
  const Scanned r = scan_file(path("v.mnrs"));
  EXPECT_TRUE(r.scan.version_mismatch);
  EXPECT_TRUE(r.scan.entries.empty());  // refused wholesale, never half-read

  // An empty file is NOT a refusal: it is a segment another process
  // claimed (O_EXCL) and never wrote — the crash window between claim
  // and header.  Tolerated as zero records so verify stays green.
  spit(path("e.mnrs"), "");
  const Scanned empty = scan_file(path("e.mnrs"));
  EXPECT_FALSE(empty.scan.version_mismatch);
  EXPECT_EQ(empty.scan.torn_frames, 0u);
  EXPECT_TRUE(empty.scan.entries.empty());
}

TEST_F(SegmentTest, EveryPrefixTruncationIsHandledCleanly) {
  // Exhaustive torn-tail sweep: every possible crash point parses
  // without throwing and never yields more records than were written.
  write_sample(path("a.mnrs"));
  const std::string bytes = slurp(path("a.mnrs"));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    spit(path("t.mnrs"), bytes.substr(0, n));
    const Scanned r = scan_file(path("t.mnrs"));
    EXPECT_LE(r.scan.entries.size(), 3u) << "at prefix " << n;
  }
}

TEST_F(SegmentTest, OversizeBlobIsRejectedAtAppend) {
  SegmentWriter w{path("a.mnrs")};
  EXPECT_THROW(w.append({1, 1}, std::string(kMaxFramePayload, 'x')), std::length_error);
}

}  // namespace
}  // namespace mn::store
