/**
 * @file
 * rog_chaos --check fails a run whose planned fault never fired. Each
 * case runs the real supervisor binary against a 3-worker UDP fleet
 * with a fault planned where the run cannot reach it: a partition
 * window that opens 30 s into a 10-iteration run, and a kill at an
 * iteration past the last. Either would test nothing, so the gate must
 * say so and exit 1.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/stat.h>
#include <sys/wait.h>

namespace rog {
namespace {

struct ToolRun
{
    int code = -1;
    std::string output; //!< stdout and stderr together.
};

ToolRun
runChaos(const std::string &name, const std::string &args)
{
    const std::string dir = testing::TempDir() + "rog_chaos_gate_" + name;
    ::mkdir(dir.c_str(), 0755);
    ToolRun run;
    const std::string cmd = std::string(ROG_CHAOS_BIN) + " --dir " + dir +
                            " --workers 3 --iters 10 "
                            "--seed 1234 --check " +
                            args + " 2>&1";
    FILE *p = ::popen(cmd.c_str(), "r");
    if (p == nullptr)
        return run;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        run.output.append(buf, n);
    const int status = ::pclose(p);
    run.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return run;
}

TEST(ChaosGate, PartitionThatNeverOpensFailsTheCheck)
{
    const ToolRun run = runChaos("partition", "--kill \"\" --partition 1:30:2.5");
    EXPECT_EQ(run.code, 1) << run.output;
    EXPECT_NE(run.output.find("VIOLATION: planned fault never fired: "
                              "partition w=1 opens at t=30"),
              std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("planned faults: 0 of 1 fired"),
              std::string::npos)
        << run.output;
}

TEST(ChaosGate, KillPastTheLastIterationFailsTheCheck)
{
    const ToolRun run = runChaos("kill", "--kill 1 --kill-iter 50");
    EXPECT_EQ(run.code, 1) << run.output;
    EXPECT_NE(run.output.find("VIOLATION: planned fault never fired: "
                              "kill w=1 is not in kills.txt"),
              std::string::npos)
        << run.output;
}

} // namespace
} // namespace rog
