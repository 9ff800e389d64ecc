#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace mn {
namespace {

TEST(Csv, WriteAndParseRoundTrip) {
  CsvWriter w{{"a", "b", "c"}};
  w.add_row({"1", "2", "3"});
  w.add_row({"x", "y", "z"});
  const auto data = parse_csv(w.str());
  ASSERT_EQ(data.header.size(), 3u);
  ASSERT_EQ(data.rows.size(), 2u);
  EXPECT_EQ(data.rows[0][1], "2");
  EXPECT_EQ(data.rows[1][2], "z");
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter w{{"a", "b"}};
  EXPECT_THROW(w.add_row({"only-one"}), std::runtime_error);
}

TEST(Csv, ColLookup) {
  const auto data = parse_csv("x,y\n1,2\n");
  EXPECT_EQ(data.col("y"), 1u);
  EXPECT_THROW((void)data.col("nope"), std::runtime_error);
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW(parse_csv("a,b\n1\n"), std::runtime_error);
}

TEST(Csv, EmptyCellsPreserved) {
  const auto data = parse_csv("a,b,c\n,,\n");
  ASSERT_EQ(data.rows.size(), 1u);
  EXPECT_EQ(data.rows[0][0], "");
  EXPECT_EQ(data.rows[0][2], "");
}

TEST(Csv, SaveAndLoadFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mn_csv_test.csv").string();
  CsvWriter w{{"k", "v"}};
  w.add_row({"tput", "9.5"});
  w.save(path);
  const auto data = load_csv(path);
  ASSERT_EQ(data.rows.size(), 1u);
  EXPECT_EQ(data.rows[0][0], "tput");
  std::remove(path.c_str());
}

TEST(Csv, LoadMissingFileThrows) {
  EXPECT_THROW(load_csv("/nonexistent/definitely/not.csv"), std::runtime_error);
}

TEST(FormatDouble, ExactRoundTripForAwkwardValues) {
  for (double v : {0.1, 1.0 / 3.0, 1234.56789012345, 2.5e-17, -9.875e20, 0.0,
                   123456789.123456789, 5e-324}) {
    EXPECT_EQ(parse_double(format_double(v)), v) << format_double(v);
  }
}

TEST(FormatDouble, BeatsToStringTruncation) {
  // The bug this guards against: std::to_string emits 6 fixed decimals,
  // so anything needing more precision (or smaller than 1e-6) corrupts.
  const double v = 3.141592653589793;
  EXPECT_NE(std::to_string(v), format_double(v));
  EXPECT_EQ(parse_double(format_double(v)), v);
}

TEST(ParseDouble, RejectsHostileCells) {
  EXPECT_THROW((void)parse_double(""), std::runtime_error);
  EXPECT_THROW((void)parse_double("abc"), std::runtime_error);
  EXPECT_THROW((void)parse_double("1.2x"), std::runtime_error);   // stod would accept
  EXPECT_THROW((void)parse_double(" 1.2"), std::runtime_error);   // no silent trimming
  EXPECT_THROW((void)parse_double("1.2 "), std::runtime_error);
  EXPECT_THROW((void)parse_double("--5"), std::runtime_error);
  EXPECT_DOUBLE_EQ(parse_double("-5.5e2"), -550.0);
}

}  // namespace
}  // namespace mn
