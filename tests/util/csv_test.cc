#include "util/csv.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace flowsched {
namespace {

// Every row of `content`, read through CsvRowReader.
std::vector<std::vector<std::string>> ReadRows(const std::string& content) {
  std::istringstream in(content);
  CsvRowReader reader(in);
  std::vector<std::vector<std::string>> rows;
  for (std::vector<std::string> row; reader.Next(&row);) rows.push_back(row);
  return rows;
}

TEST(CsvTest, WritesSimpleRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.Row("a", 1, 2.5);
  w.Row("b", -3, 0.0);
  EXPECT_EQ(out.str(), "a,1,2.5\nb,-3,0\n");
}

TEST(CsvTest, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter w(out);
  w.Row("has,comma", "has\"quote", "plain");
  EXPECT_EQ(out.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(CsvTest, RoundTripsQuotedContent) {
  std::ostringstream out;
  CsvWriter w(out);
  w.Row("x,y", "line\nbreak", "q\"q");
  const auto rows = ReadRows(out.str());
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][0], "x,y");
  EXPECT_EQ(rows[0][1], "line\nbreak");
  EXPECT_EQ(rows[0][2], "q\"q");
}

TEST(CsvTest, EscapeFieldQuotesAllSeparators) {
  // Plain fields pass through untouched.
  EXPECT_EQ(CsvEscapeField("plain"), "plain");
  EXPECT_EQ(CsvEscapeField(""), "");
  EXPECT_EQ(CsvEscapeField("online.srpt"), "online.srpt");
  // Commas, quotes, newlines — and semicolons, because instance-spec lists
  // and inline scenario scripts use ';' internally and common spreadsheet
  // dialects treat it as a separator.
  EXPECT_EQ(CsvEscapeField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscapeField("a;b"), "\"a;b\"");
  EXPECT_EQ(CsvEscapeField("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(CsvEscapeField("a\nb"), "\"a\nb\"");
  EXPECT_EQ(CsvEscapeField("inline:PORT_DOWN 10 2;PORT_UP 20 2"),
            "\"inline:PORT_DOWN 10 2;PORT_UP 20 2\"");
  // Escaped fields parse back to the original.
  const auto rows =
      ReadRows(CsvEscapeField("x;y,\"z\"") + "," + CsvEscapeField("w") + "\n");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], "x;y,\"z\"");
  EXPECT_EQ(rows[0][1], "w");
}

TEST(CsvTest, ParsesMultipleRowsAndEmptyFields) {
  const auto rows = ReadRows("a,,c\r\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvRowReaderTest, StreamsRowsWithExactLineNumbers) {
  std::istringstream in("a,b\n\n1,2\r\n\n\n3,4");  // No trailing newline.
  CsvRowReader reader(in);
  std::vector<std::string> row;
  EXPECT_EQ(reader.line(), 0);
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(reader.line(), 1);
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(reader.line(), 3);  // Blank line 2 skipped but counted.
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row, (std::vector<std::string>{"3", "4"}));
  EXPECT_EQ(reader.line(), 6);
  EXPECT_FALSE(reader.Next(&row));
}

TEST(CsvRowReaderTest, QuotedFieldsMaySpanLines) {
  std::istringstream in("x,\"two\nlines\",z\nnext,row\n");
  CsvRowReader reader(in);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.Next(&row));
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1], "two\nlines");
  EXPECT_EQ(reader.line(), 1);  // The row *starts* on line 1.
  ASSERT_TRUE(reader.Next(&row));
  EXPECT_EQ(row, (std::vector<std::string>{"next", "row"}));
  EXPECT_EQ(reader.line(), 3);  // The quoted row consumed lines 1-2.
}

TEST(CsvRowReaderTest, ReadsDoubledQuotesAndEmptyFields) {
  EXPECT_EQ(ReadRows("p,\"q\"\"q\",r\n,,\nlast\n"),
            (std::vector<std::vector<std::string>>{
                {"p", "q\"q", "r"}, {"", "", ""}, {"last"}}));
}

TEST(CsvRowReaderTest, EmptyInputYieldsNoRows) {
  std::istringstream in("");
  CsvRowReader reader(in);
  std::vector<std::string> row;
  EXPECT_FALSE(reader.Next(&row));
  std::istringstream blanks("\n\n\n");
  CsvRowReader reader2(blanks);
  EXPECT_FALSE(reader2.Next(&row));
}

}  // namespace
}  // namespace flowsched
