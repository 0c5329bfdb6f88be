/**
 * @file
 * Unit tests for the command-line parser.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/args.hpp"

namespace rog {
namespace {

const std::set<std::string> kKnown = {"alpha", "beta", "flag"};

Args
parse(std::initializer_list<const char *> argv_list)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), argv_list.begin(), argv_list.end());
    return Args(static_cast<int>(argv.size()), argv.data(), kKnown);
}

TEST(ArgsTest, PositionalAndOptions)
{
    const auto args = parse({"run", "--alpha", "3", "--flag"});
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "run");
    EXPECT_EQ(args.get("alpha"), "3");
    EXPECT_TRUE(args.has("flag"));
    EXPECT_FALSE(args.has("beta"));
}

TEST(ArgsTest, EqualsSyntax)
{
    const auto args = parse({"--alpha=hello"});
    EXPECT_EQ(args.get("alpha"), "hello");
}

TEST(ArgsTest, NumericAccessors)
{
    const auto args = parse({"--alpha", "2.5", "--beta", "7"});
    EXPECT_DOUBLE_EQ(args.getDouble("alpha", 0.0), 2.5);
    EXPECT_EQ(args.getSize("beta", 0), 7u);
    EXPECT_EQ(args.getSize("flag", 42), 42u); // fallback.
}

TEST(ArgsTest, UnknownOptionThrows)
{
    EXPECT_THROW(parse({"--gamma", "1"}), std::runtime_error);
}

TEST(ArgsTest, NonNumericValueThrows)
{
    const auto args = parse({"--alpha", "xyz"});
    EXPECT_THROW(args.getDouble("alpha", 0.0), std::runtime_error);
}

TEST(ArgsTest, NanAndOverflowThrow)
{
    EXPECT_THROW(parse({"--alpha", "nan"}).getDouble("alpha", 0.0),
                 std::runtime_error);
    EXPECT_THROW(parse({"--alpha", "1e999"}).getDouble("alpha", 0.0),
                 std::runtime_error);
    EXPECT_THROW(parse({"--beta", "inf"}).getSize("beta", 0),
                 std::runtime_error);
    // An explicit infinity is a number; a bound may be unbounded.
    EXPECT_TRUE(std::isinf(parse({"--alpha", "inf"}).getDouble("alpha", 0)));
}

TEST(ArgsTest, PositionalAfterOptionsThrows)
{
    // After an option with an explicit value, a bare token cannot be
    // swallowed as a value, so it is a misplaced positional.
    EXPECT_THROW(parse({"--alpha=1", "oops"}), std::runtime_error);
}

TEST(ArgsTest, FlagBeforeNextOptionTakesNoValue)
{
    const auto args = parse({"--flag", "--alpha", "1"});
    EXPECT_TRUE(args.has("flag"));
    EXPECT_EQ(args.get("flag"), "");
    EXPECT_EQ(args.get("alpha"), "1");
}

TEST(SplitCommaListTest, Basics)
{
    EXPECT_EQ(splitCommaList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitCommaList("single"),
              (std::vector<std::string>{"single"}));
    EXPECT_TRUE(splitCommaList("").empty());
    EXPECT_EQ(splitCommaList("a,,b"),
              (std::vector<std::string>{"a", "b"}));
}

} // namespace
} // namespace rog
