/**
 * @file
 * writeFileDurably: the one write path of every state file replaces
 * its target whole, leaves no temporary behind, and reports every
 * failure instead of skipping it.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/durable_file.hpp"

namespace rog {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
scratchDir(const char *name)
{
    const std::string dir = testing::TempDir() + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

TEST(DurableFile, ReplacesTheFileWholeAndLeavesNoTemporary)
{
    const std::string path = scratchDir("rog_durable_replace") + "/f";
    writeFileDurably(path, [](std::ostream &os) { os << "old"; });
    EXPECT_EQ(slurp(path), "old");
    // Larger than the writer's buffer, so both write paths run.
    const std::string big(100000, 'x');
    writeFileDurably(path, [&big](std::ostream &os) {
        os << "new:";
        os.write(big.data(), static_cast<std::streamsize>(big.size()));
        os << ":end";
    });
    EXPECT_EQ(slurp(path), "new:" + big + ":end");
    EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(DurableFile, MissingDirectoryIsReported)
{
    const std::string path =
        testing::TempDir() + "rog_durable_no_such_dir/sub/f";
    try {
        writeFileDurably(path, [](std::ostream &os) { os << "x"; });
        FAIL() << "a write into a missing directory returned";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("durable write of '" + path),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(exists(path));
}

TEST(DurableFile, FailedFillKeepsTheOldFile)
{
    const std::string path = scratchDir("rog_durable_fill") + "/f";
    writeFileDurably(path, [](std::ostream &os) { os << "kept"; });
    EXPECT_THROW(writeFileDurably(path,
                                  [](std::ostream &os) {
                                      os << "half";
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(slurp(path), "kept");
    EXPECT_FALSE(exists(path + ".tmp"));
}

} // namespace
} // namespace rog
