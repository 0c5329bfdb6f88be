/**
 * @file
 * Process-level chaos against the *server*: a real 3-worker fleet
 * over loopback UDP where the parameter server itself is SIGKILLed
 * mid-run — after it has both applied a push past the kill bound and
 * written a durable checkpoint — and restarted against the same
 * checkpoint on the same port. The restarted incarnation must bump
 * its run epoch, re-admit every worker through the handshake gates,
 * and finish the run; chaos_check then proves no push was applied
 * twice across the restart boundary and the final model sits within
 * tolerance of a DES twin replaying the same crash plan.
 *
 * A second scenario partitions one worker's uplink for a window long
 * enough to trip the server's failure detector: the worker must be
 * evicted (or ride it out) and the run must still satisfy every
 * invariant once the partition heals.
 *
 * These are the `rog_chaos --kill-server-iter` / `--partition`
 * scenarios, pinned as tests.
 */
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/chaos_check.hpp"
#include "core/node_runner.hpp"

namespace rog {
namespace core {
namespace {

pid_t
spawnServer(const NodeRunConfig &cfg, int port_fd)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        const ServerRunResult res =
            runServerNode(cfg, [port_fd](std::uint16_t port) {
                if (port_fd >= 0) {
                    (void)!::write(port_fd, &port, sizeof port);
                    ::close(port_fd);
                }
            });
        _exit(res.done ? 0 : 1);
    }
    return pid;
}

pid_t
spawnWorker(const NodeRunConfig &cfg, std::size_t w,
            std::uint16_t port)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        const WorkerRunResult res =
            runWorkerNode(cfg, w, "127.0.0.1", port);
        _exit(res.done ? 0 : 1);
    }
    return pid;
}

void
reportViolations(const ChaosCheckResult &res)
{
    std::ostringstream os;
    for (const auto &v : res.violations)
        os << "  " << v << '\n';
    EXPECT_TRUE(res.ok) << res.report << "violations:\n" << os.str();
}

TEST(SessionServerChaos, KilledAndRestartedServerKeepsTheRunCorrect)
{
    char dir_tmpl[] = "/tmp/rog_server_chaos_test_XXXXXX";
    char *dir = ::mkdtemp(dir_tmpl);
    ASSERT_NE(dir, nullptr);

    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 3;
    cfg.artifact_dir = dir;
    cfg.train.worker_state_dir = dir;
    cfg.train.max_iters = 10;
    cfg.run_timeout_s = 60.0;
    // The DES twin replays the same crash plan (kill once a push at
    // iteration >= 3 applies, restart 0.5s later).
    cfg.server_crash_iter = 3;
    cfg.server_crash_restart_s = 0.5;

    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    pid_t server_pid = spawnServer(cfg, port_pipe[1]);
    ASSERT_GE(server_pid, 0);
    ::close(port_pipe[1]);
    std::uint16_t port = 0;
    ASSERT_EQ(::read(port_pipe[0], &port, sizeof port),
              static_cast<ssize_t>(sizeof port));
    ::close(port_pipe[0]);
    ASSERT_NE(port, 0);

    std::vector<pid_t> pids(cfg.workers, -1);
    std::vector<bool> exited(cfg.workers, false);
    std::vector<int> codes(cfg.workers, -1);
    for (std::size_t w = 0; w < cfg.workers; ++w)
        pids[w] = spawnWorker(cfg, w, port);

    // Supervise: SIGKILL the server once it has applied past the kill
    // bound with a checkpoint on disk, restart it 500ms later on the
    // same port against the same checkpoint, then reap everyone.
    bool server_killed = false;
    bool server_restarted = false;
    int restart_at = 0;
    const int max_polls = 60000; // 1ms cadence: 60s watchdog.
    for (int tick = 0; tick < max_polls; ++tick) {
        if (!server_killed && serverKillReady(dir, 3)) {
            ::kill(server_pid, SIGKILL);
            ::waitpid(server_pid, nullptr, 0);
            server_killed = true;
            restart_at = tick + 500;
        }
        if (server_killed && !server_restarted &&
            tick >= restart_at) {
            NodeRunConfig restart_cfg = cfg;
            restart_cfg.listen_port = port; // reclaim the old port.
            server_pid = spawnServer(restart_cfg, -1);
            ASSERT_GE(server_pid, 0);
            server_restarted = true;
        }
        bool all_done = server_killed == server_restarted;
        for (std::size_t w = 0; w < cfg.workers; ++w) {
            if (exited[w])
                continue;
            int status = 0;
            if (::waitpid(pids[w], &status, WNOHANG) == pids[w]) {
                exited[w] = true;
                codes[w] = WIFEXITED(status)
                               ? WEXITSTATUS(status)
                               : 128 + WTERMSIG(status);
            } else {
                all_done = false;
            }
        }
        if (all_done && server_killed)
            break;
        ::usleep(1000);
    }

    EXPECT_TRUE(server_killed) << "server never became kill-ready";
    ASSERT_TRUE(server_restarted);
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        EXPECT_TRUE(exited[w]) << "worker " << w << " never finished";
        if (!exited[w] && pids[w] > 0) {
            ::kill(pids[w], SIGKILL);
            ::waitpid(pids[w], nullptr, 0);
        }
        EXPECT_EQ(codes[w], 0) << "worker " << w << " exit code";
    }

    int status = 0;
    ASSERT_EQ(::waitpid(server_pid, &status, 0), server_pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "restarted server exit code";

    const DesTwinResult twin = runDesTwin(cfg);
    EXPECT_TRUE(twin.done);

    ChaosCheckOptions opts;
    opts.server_restarts = 1;
    reportViolations(checkChaosRun(cfg, opts));
}

TEST(SessionServerChaos, PartitionedWorkerHealsAndRunStaysCorrect)
{
    char dir_tmpl[] = "/tmp/rog_partition_test_XXXXXX";
    char *dir = ::mkdtemp(dir_tmpl);
    ASSERT_NE(dir, nullptr);

    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 3;
    cfg.artifact_dir = dir;
    cfg.train.worker_state_dir = dir;
    cfg.train.max_iters = 10;
    cfg.run_timeout_s = 60.0;

    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    const pid_t server_pid = spawnServer(cfg, port_pipe[1]);
    ASSERT_GE(server_pid, 0);
    ::close(port_pipe[1]);
    std::uint16_t port = 0;
    ASSERT_EQ(::read(port_pipe[0], &port, sizeof port),
              static_cast<ssize_t>(sizeof port));
    ::close(port_pipe[0]);
    ASSERT_NE(port, 0);

    // Worker 1's uplink goes dark from 20ms to 2.52s of its own
    // clock — long past the server's detection bound, so the server
    // must suspect and evict it, then cleanly re-admit it once the
    // window closes.
    std::vector<pid_t> pids(cfg.workers, -1);
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        NodeRunConfig wcfg = cfg;
        if (w == 1) {
            wcfg.fault_plan.part_begin_s = 0.02;
            wcfg.fault_plan.part_end_s = 2.52;
        }
        pids[w] = spawnWorker(wcfg, w, port);
    }

    std::vector<int> codes(cfg.workers, -1);
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        int status = 0;
        ASSERT_EQ(::waitpid(pids[w], &status, 0), pids[w]);
        codes[w] = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
        EXPECT_EQ(codes[w], 0) << "worker " << w << " exit code";
    }
    int status = 0;
    ASSERT_EQ(::waitpid(server_pid, &status, 0), server_pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "server exit code";

    const DesTwinResult twin = runDesTwin(cfg);
    EXPECT_TRUE(twin.done);

    reportViolations(checkChaosRun(cfg, ChaosCheckOptions{}));
}

} // namespace
} // namespace core
} // namespace rog
