/**
 * @file
 * rog_noded refuses a run no role could finish before it starts: too
 * many workers for the node workload's training set (the Dirichlet
 * split would abort on an empty shard) and an artifact directory that
 * does not exist (the run would end in the durable writer's fatal
 * error after training). Each exits 2 with one diagnostic line and
 * writes nothing; nodeRunConfigError names the same rule. Both
 * rog_noded and rog_chaos refuse an unknown option, such as the old
 * --backend, the same way. A server that cannot open its socket says
 * why on stderr.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/node_runner.hpp"

namespace rog {
namespace core {
namespace {

struct ToolRun
{
    int code = -1;
    std::string output; //!< stdout and stderr together.
};

/** Runs @p bin with @p args; @p redirect picks the streams captured
 *  (the default takes stdout and stderr together). */
ToolRun
runTool(const char *bin, const std::string &args,
        const char *redirect = " 2>&1")
{
    ToolRun run;
    const std::string cmd = std::string(bin) + " " + args + redirect;
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

std::string
freshDir(const char *name)
{
    const std::string dir = testing::TempDir() + "rog_node_cli_" + name;
    ::mkdir(dir.c_str(), 0755);
    std::remove((dir + "/des_summary.txt").c_str());
    std::remove((dir + "/des_twin.log").c_str());
    return dir;
}

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

TEST(NodedCli, TooManyWorkersForTheTrainingSetAreRejectedBeforeTheRun)
{
    const std::string dir = freshDir("workers");
    for (const char *workers : {"256", "512", "1024", "0"}) {
        const ToolRun run = runTool(ROG_NODED_BIN, std::string("des --iters 2 --workers ") +
                                 workers + " --dir " + dir);
        EXPECT_EQ(run.code, 2) << workers;
        EXPECT_EQ(run.output,
                  std::string("rog_noded: ") + workers +
                      " workers: the node workload has 240 training "
                      "samples, so a run takes 1 to 240 workers\n");
        EXPECT_FALSE(exists(dir + "/des_twin.log")) << workers;
    }
}

TEST(NodedCli, MissingArtifactDirectoryIsRejectedBeforeTheRun)
{
    const std::string missing = testing::TempDir() + "rog_node_cli_absent";
    ::rmdir(missing.c_str());
    const ToolRun run =
        runTool(ROG_NODED_BIN, "des --iters 2 --workers 3 --dir " + missing);
    EXPECT_EQ(run.code, 2);
    EXPECT_EQ(run.output, "rog_noded: artifact directory '" + missing +
                              "' does not exist\n");
}

TEST(NodedCli, BackendOptionIsRefusedBeforeAnythingStarts)
{
    const std::string dir = testing::TempDir() + "rog_node_cli_backend";
    ::rmdir(dir.c_str());
    struct Tool
    {
        const char *bin;
        const char *subcommand;
        const char *refusal;
    };
    const Tool tools[] = {
        {ROG_NODED_BIN, "des ", "rog_noded: fatal: unknown option --backend\n"},
        {ROG_CHAOS_BIN, "", "rog_chaos: fatal: unknown option --backend\n"}};
    for (const Tool &tool : tools) {
        for (const char *value : {"udp", "tcp", "des"}) {
            const std::string cmd = std::string(tool.subcommand) + "--dir " +
                                    dir + " --backend " + value +
                                    " --iters 2";
            const ToolRun run = runTool(tool.bin, cmd);
            EXPECT_EQ(run.code, 2) << cmd;
            EXPECT_EQ(run.output, tool.refusal);
            EXPECT_FALSE(exists(dir)) << cmd;
        }
    }
}

/** A usage error names the mistake, not the line of the parser that
 *  found it. */
TEST(NodedCli, UsageErrorsPrintWithoutSourceLocation)
{
    struct Case
    {
        const char *bin;
        const char *args;
        const char *line;
    };
    const std::string dir = testing::TempDir() + "rog_node_cli_usage";
    const Case cases[] = {
        {ROG_NODED_BIN, "des --iters x",
         "rog_noded: fatal: option --iters expects a number, got 'x'\n"},
        {ROG_CHAOS_BIN, "--stall 1:x",
         "rog_chaos: fatal: bad --stall entry '1:x' (want W:SECS)\n"},
        {ROG_TRANSPORTD_BIN, "recv --frobnicate",
         "rog_transportd: fatal: unknown option --frobnicate\n"}};
    for (const Case &c : cases) {
        const ToolRun run =
            runTool(c.bin, std::string(c.args) + " --dir " + dir);
        EXPECT_EQ(run.code, 2) << c.args;
        EXPECT_EQ(run.output, c.line);
    }
}

TEST(NodedCli, BusyListenPortFailsWithTheSocketError)
{
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr),
              0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len), 0);
    const std::string port = std::to_string(ntohs(addr.sin_port));
    const std::string dir = freshDir("busy_port");
    for (const char *retry : {"", " --bind-retry 0.3"}) {
        const ToolRun run = runTool(
            ROG_NODED_BIN,
            "server --workers 1 --iters 2 --listen-port " + port +
                " --dir " + dir + retry,
            " 2>&1 >/dev/null");
        EXPECT_NE(run.code, 0) << retry;
        EXPECT_EQ(run.output.rfind("rog_noded server: udp bind (", 0), 0u)
            << run.output;
        EXPECT_EQ(std::count(run.output.begin(), run.output.end(), '\n'),
                  1)
            << run.output;
        EXPECT_TRUE(run.output.ends_with('\n')) << run.output;
        // No run summary: the socket never opened.
        const ToolRun out = runTool(
            ROG_NODED_BIN,
            "server --workers 1 --iters 2 --listen-port " + port +
                " --dir " + dir + retry,
            " 2>/dev/null");
        EXPECT_EQ(out.code, 1) << retry;
        EXPECT_EQ(out.output, "") << retry;
    }
    ::close(fd);
}

TEST(NodedCli, ConfigErrorNamesEachImpossibleRun)
{
    NodeRunConfig cfg;
    cfg.workers = 240;
    EXPECT_EQ(nodeRunConfigError(cfg), "");
    cfg.workers = 241;
    EXPECT_NE(nodeRunConfigError(cfg).find("1 to 240 workers"),
              std::string::npos);
    cfg.workers = 3;
    cfg.artifact_dir = freshDir("file") + "/des_summary.txt";
    std::FILE *f = std::fopen(cfg.artifact_dir.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    EXPECT_NE(nodeRunConfigError(cfg).find("is not a directory"),
              std::string::npos);
    std::remove(cfg.artifact_dir.c_str());
}

} // namespace
} // namespace core
} // namespace rog
