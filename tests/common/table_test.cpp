/**
 * @file
 * Unit tests for table / series rendering.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hpp"

namespace rog {
namespace {

TEST(TableTest, TextContainsTitleHeaderAndCells)
{
    Table t("demo", {"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({"x", "y"});
    std::ostringstream os;
    t.printText(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("| a"), std::string::npos);
    EXPECT_NE(s.find("| x"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, RowWidthMismatchDies)
{
    Table t("bad", {"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(TableTest, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(SeriesSetTest, CsvLongForm)
{
    SeriesSet s("curves", "x", "y");
    s.add("A", 0.0, 1.0);
    s.add("A", 1.0, 2.0);
    s.add("B", 0.0, 5.0);
    std::ostringstream os;
    s.printCsv(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("series,x,y"), std::string::npos);
    EXPECT_NE(out.find("A,0,1"), std::string::npos);
    EXPECT_NE(out.find("B,0,5"), std::string::npos);
}

TEST(SeriesSetTest, SummaryListsEverySeries)
{
    SeriesSet s("sum", "x", "y");
    for (int i = 0; i < 10; ++i) {
        s.add("one", i, i * 2.0);
        s.add("two", i, i * 3.0);
    }
    std::ostringstream os;
    s.printSummary(os);
    EXPECT_NE(os.str().find("one"), std::string::npos);
    EXPECT_NE(os.str().find("two"), std::string::npos);
}

} // namespace
} // namespace rog
