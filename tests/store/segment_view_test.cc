// MappedSegment: the store's mmap'd read-only view must agree with a
// plain read of the whole file through scan_segment on every segment
// state — sealed, unsealed, torn, refused, and the claimed-but-never-
// written empty file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "store/segment.hpp"
#include "store/segment_view.hpp"

namespace mn::store {
namespace {

namespace fs = std::filesystem;

class SegmentViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::path(::testing::TempDir()) /
            ("view_" + std::string{::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()} +
             ".mnrs");
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }

  [[nodiscard]] std::string path() const { return path_.string(); }

  /// Writes n records; returns the file size before sealing.  The
  /// writer's destructor always seals, so "unsealed" states are made by
  /// truncating back to this size — exactly what a crashed writer
  /// leaves behind.
  std::uint64_t write_records(int n, bool seal) {
    std::uint64_t unsealed_size = kSegmentMagic.size() + 4;  // header
    {
      SegmentWriter w{path()};
      for (int i = 0; i < n; ++i) {
        unsealed_size += w.append(ScenarioKey{static_cast<std::uint64_t>(i), 99},
                                  "blob-" + std::to_string(i));
      }
      w.seal();
    }
    if (!seal) fs::resize_file(path_, unsealed_size);
    return unsealed_size;
  }

  /// The mapped view and a heap read of the file must report identical
  /// content.
  void expect_view_matches_reader() {
    std::ifstream in(path(), std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    const SegmentScan heap = scan_segment(bytes);
    const MappedSegment view{path()};
    EXPECT_EQ(view.scan().sealed, heap.sealed);
    EXPECT_EQ(view.scan().version_mismatch, heap.version_mismatch);
    EXPECT_EQ(view.scan().torn_frames, heap.torn_frames);
    ASSERT_EQ(view.scan().entries.size(), heap.entries.size());
    for (std::size_t i = 0; i < heap.entries.size(); ++i) {
      const ScanEntry& e = heap.entries[i];
      EXPECT_EQ(view.scan().entries[i].key, e.key);
      EXPECT_EQ(view.blob(view.scan().entries[i]), bytes.substr(e.blob_offset, e.blob_len));
    }
  }

  fs::path path_;
};

TEST_F(SegmentViewTest, SealedSegmentMapsIdentically) {
  write_records(10, /*seal=*/true);
  expect_view_matches_reader();
  const MappedSegment view{path()};
  EXPECT_TRUE(view.scan().sealed);
  EXPECT_EQ(view.scan().entries.size(), 10u);
}

TEST_F(SegmentViewTest, UnsealedSegmentMapsIdentically) {
  write_records(4, /*seal=*/false);
  expect_view_matches_reader();
  const MappedSegment view{path()};
  EXPECT_FALSE(view.scan().sealed);
  EXPECT_EQ(view.scan().entries.size(), 4u);
}

TEST_F(SegmentViewTest, TornTailIsToleratedIdentically) {
  write_records(5, /*seal=*/false);
  // Chop mid-frame: the last record becomes a torn tail.
  const auto size = fs::file_size(path_);
  fs::resize_file(path_, size - 7);
  expect_view_matches_reader();
  const MappedSegment view{path()};
  EXPECT_EQ(view.scan().entries.size(), 4u);
  EXPECT_GT(view.scan().truncated_bytes, 0u);
}

TEST_F(SegmentViewTest, EmptyFileIsClaimedNotDamage) {
  // The crash window between O_EXCL claim and header write leaves a
  // zero-byte file; both readers treat it as benign.
  std::ofstream{path()}.flush();
  const MappedSegment view{path()};
  EXPECT_EQ(view.scan().entries.size(), 0u);
  EXPECT_FALSE(view.scan().version_mismatch);
  EXPECT_EQ(view.scan().torn_frames, 0u);
  expect_view_matches_reader();
}

TEST_F(SegmentViewTest, ForeignVersionIsRefusedIdentically) {
  std::ofstream{path(), std::ios::binary} << "MNRS9\njunk that is not ours at all";
  const MappedSegment view{path()};
  EXPECT_TRUE(view.scan().version_mismatch);
  EXPECT_EQ(view.scan().entries.size(), 0u);
  expect_view_matches_reader();
}

TEST_F(SegmentViewTest, BlobViewsAreZeroCopyIntoTheMapping) {
  write_records(3, /*seal=*/true);
  const MappedSegment view{path()};
  for (const auto& e : view.scan().entries) {
    const std::string_view blob = view.blob(e);
    EXPECT_GE(blob.data(), view.data().data());
    EXPECT_LE(blob.data() + blob.size(), view.data().data() + view.data().size());
  }
}

TEST_F(SegmentViewTest, MissingFileThrows) {
  EXPECT_THROW(MappedSegment{path() + ".nope"}, std::runtime_error);
}

}  // namespace
}  // namespace mn::store
