/**
 * @file
 * rog_noded refuses a run no role could finish before it starts: too
 * many workers for the node workload's training set (the Dirichlet
 * split would abort on an empty shard) and an artifact directory that
 * does not exist (the run would end in the durable writer's fatal
 * error after training). Each exits 2 with one diagnostic line and
 * writes nothing; nodeRunConfigError names the same rule. Both
 * rog_noded and rog_chaos refuse an unknown option, such as the old
 * --backend, the same way.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/stat.h>
#include <sys/wait.h>

#include "core/node_runner.hpp"

namespace rog {
namespace core {
namespace {

struct ToolRun
{
    int code = -1;
    std::string output; //!< stdout and stderr together.
};

ToolRun
runTool(const char *bin, const std::string &args)
{
    ToolRun run;
    const std::string cmd = std::string(bin) + " " + args + " 2>&1";
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
        {ROG_NODED_BIN, "des ", "rog_noded: fatal: unknown option --backend "},
        {ROG_CHAOS_BIN, "", "rog_chaos: fatal: unknown option --backend "}};
    for (const Tool &tool : tools) {
        for (const char *value : {"udp", "tcp", "des"}) {
            const std::string cmd = std::string(tool.subcommand) + "--dir " +
                                    dir + " --backend " + value +
                                    " --iters 2";
            const ToolRun run = runTool(tool.bin, cmd);
            EXPECT_EQ(run.code, 2) << cmd;
            EXPECT_EQ(run.output.rfind(tool.refusal, 0), 0u) << run.output;
            EXPECT_EQ(run.output.find('\n'), run.output.size() - 1)
                << run.output;
            EXPECT_FALSE(exists(dir)) << cmd;
        }
    }
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
