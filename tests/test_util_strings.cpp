#include "util/csv.hpp"
#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>

namespace slmob {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitEmptyInput) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("HTTP/1.0", "HTTP/"));
  EXPECT_FALSE(starts_with("HT", "HTTP/"));
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("Content-Length", "content-lengt"));
}

TEST(Strings, ParseNonNegativeInt) {
  EXPECT_EQ(parse_non_negative_int("42"), 42);
  EXPECT_EQ(parse_non_negative_int(" 42 "), 42);
  EXPECT_EQ(parse_non_negative_int("-1"), -1);
  EXPECT_EQ(parse_non_negative_int("x42"), -1);
  EXPECT_EQ(parse_non_negative_int("42x"), -1);
  EXPECT_EQ(parse_non_negative_int(""), -1);
}

TEST(Strings, ParseDoubleTakesTheWholeField) {
  EXPECT_EQ(parse_double("-2.5"), -2.5);
  EXPECT_EQ(parse_double(" 12 "), 12.0);
  EXPECT_TRUE(std::isinf(*parse_double("inf")));
  EXPECT_EQ(parse_double("12xyz"), std::nullopt);
  EXPECT_EQ(parse_double("abc"), std::nullopt);
  EXPECT_EQ(parse_double(""), std::nullopt);
}

TEST(Strings, ParseU32RejectsSignsAndOverflow) {
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
  EXPECT_EQ(parse_u32(" 7 "), 7u);
  EXPECT_EQ(parse_u32("4294967296"), std::nullopt);
  EXPECT_EQ(parse_u32("-1"), std::nullopt);
  EXPECT_EQ(parse_u32("7.5"), std::nullopt);
  EXPECT_EQ(parse_u32(""), std::nullopt);
}

TEST(Strings, ParsePositiveDouble) {
  EXPECT_EQ(parse_positive_double("1.5"), 1.5);
  EXPECT_EQ(parse_positive_double("4"), 4.0);
  EXPECT_EQ(parse_positive_double("0"), -1.0);
  EXPECT_EQ(parse_positive_double("-2"), -1.0);
  EXPECT_EQ(parse_positive_double("abc"), -1.0);
  EXPECT_EQ(parse_positive_double("1h"), -1.0);
  EXPECT_EQ(parse_positive_double("inf"), -1.0);
  EXPECT_EQ(parse_positive_double(""), -1.0);
}

TEST(Csv, WriterProducesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"a", "b"});
  w.row({"1", "2"});
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Csv, WriterRejectsFieldsNeedingQuotes) {
  std::ostringstream os;
  CsvWriter w(os);
  EXPECT_THROW(w.row({"a,b"}), std::invalid_argument);
  EXPECT_THROW(w.row({"a\"b"}), std::invalid_argument);
  EXPECT_THROW(w.row({"a\nb"}), std::invalid_argument);
}

TEST(Csv, ParseRoundTrip) {
  std::vector<std::size_t> lines;
  std::vector<std::vector<std::string>> rows;
  for_each_csv_row("a,b\n1,2\r\n\n3,4\n", [&](std::size_t line, const auto& fields) {
    lines.push_back(line);
    rows.emplace_back(fields.begin(), fields.end());
  });
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"3", "4"}));
  EXPECT_EQ(lines, (std::vector<std::size_t>{1, 2, 4}));  // the blank line 3 counts
}

}  // namespace
}  // namespace slmob
