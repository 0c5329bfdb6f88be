/**
 * @file
 * A process killed while it saves a model never leaves a torn file.
 *
 * A forked child rewrites a multi-MiB model through nn::saveModelFile
 * in a loop, alternating two models; the parent SIGKILLs it after a
 * seeded random delay, one child at a time. After every kill the path
 * must load and hold one of the two models whole. A save that
 * truncated and rewrote the file in place would leave a prefix behind
 * for most kills.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "nn/serialize.hpp"

namespace rog {
namespace nn {
namespace {

/** About 4.2 MiB of float32 parameters. */
Model
bigModel(std::uint64_t seed)
{
    Rng rng(seed);
    ClassifierConfig cfg;
    cfg.input_dim = 1024;
    cfg.hidden = {1024};
    cfg.classes = 8;
    return makeClassifier(cfg, rng);
}

std::string
bytesOf(Model &m)
{
    std::ostringstream os;
    saveModel(os, m);
    return os.str();
}

TEST(KillMidWrite, SaveModelFileAlwaysLeavesAWholeModel)
{
    constexpr int kKills = 24;
    const std::string dir = testing::TempDir() + "rog_kill_mid_write";
    ::mkdir(dir.c_str(), 0755);
    const std::string path = dir + "/model.rogm";

    Model a = bigModel(1);
    Model b = bigModel(2);
    const std::string bytes_a = bytesOf(a);
    const std::string bytes_b = bytesOf(b);
    ASSERT_GT(bytes_a.size(), std::size_t{4} << 20);
    saveModelFile(path, a);

    Rng rng(20261018);
    Model probe = bigModel(3);
    for (int k = 0; k < kKills; ++k) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            try {
                for (std::uint64_t i = 0;; ++i)
                    saveModelFile(path, i % 2 == 0 ? b : a);
            } catch (...) {
            }
            ::_exit(1);
        }
        const auto delay = std::chrono::microseconds(
            1000 + rng.uniformInt(30000));
        std::this_thread::sleep_for(delay);
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
            << "the writer exited on its own (kill " << k << ")";

        ASSERT_NO_THROW(loadModelFile(path, probe))
            << "torn model after kill " << k << " at "
            << delay.count() << " us";
        const std::string got = bytesOf(probe);
        EXPECT_TRUE(got == bytes_a || got == bytes_b)
            << "kill " << k << " left a model that is neither";
    }
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

} // namespace
} // namespace nn
} // namespace rog
