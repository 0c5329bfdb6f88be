/**
 * @file
 * Process-level chaos against the session layer: a real 4-worker
 * fleet over loopback UDP, each role its own forked process, two
 * workers SIGKILLed the moment their run log shows a push in flight
 * and restarted shortly after. The restarted processes resume from
 * their local checkpoints and re-enter through the session handshake;
 * the run must still satisfy every chaos invariant
 * (core/chaos_check.hpp): CRC-valid server checkpoint, finite final
 * model within tolerance of the fault-free DES twin, no exactly-once
 * violation at the application or transport level, and every killed
 * worker evicted-or-readmitted and finished.
 *
 * This is the tools/rog_chaos scenario, pinned as a test.
 */
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <set>
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

[[noreturn]] void
serverChild(const NodeRunConfig &cfg, int port_fd)
{
    const ServerRunResult res =
        runServerNode(cfg, [port_fd](std::uint16_t port) {
            (void)!::write(port_fd, &port, sizeof port);
            ::close(port_fd);
        });
    _exit(res.done ? 0 : 1);
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

TEST(SessionChaos, KilledAndRestartedWorkersKeepTheRunCorrect)
{
    char dir_tmpl[] = "/tmp/rog_chaos_test_XXXXXX";
    char *dir = ::mkdtemp(dir_tmpl);
    ASSERT_NE(dir, nullptr);

    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 4;
    cfg.artifact_dir = dir;
    cfg.train.worker_state_dir = dir;
    cfg.train.max_iters = 8;
    cfg.run_timeout_s = 60.0;

    const std::set<std::size_t> victims = {1, 2};
    const std::int64_t kill_iter = 2;

    // Server process; its ephemeral port comes back over a pipe.
    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    std::fflush(nullptr);
    const pid_t server_pid = ::fork();
    ASSERT_GE(server_pid, 0);
    if (server_pid == 0) {
        ::close(port_pipe[0]);
        serverChild(cfg, port_pipe[1]);
    }
    ::close(port_pipe[1]);
    std::uint16_t port = 0;
    ASSERT_EQ(::read(port_pipe[0], &port, sizeof port),
              static_cast<ssize_t>(sizeof port));
    ::close(port_pipe[0]);
    ASSERT_NE(port, 0);

    std::vector<pid_t> pids(cfg.workers, -1);
    std::vector<bool> exited(cfg.workers, false);
    std::vector<int> codes(cfg.workers, -1);
    std::vector<bool> killed(cfg.workers, false);
    std::vector<bool> restarted(cfg.workers, false);
    for (std::size_t w = 0; w < cfg.workers; ++w)
        pids[w] = spawnWorker(cfg, w, port);

    // Supervise: SIGKILL each victim at its first logged in-flight
    // push past kill_iter, restart it 200ms later, and reap everyone.
    const int max_polls = 60000; // 1ms cadence: 60s watchdog.
    int restart_at[16] = {0};
    for (int tick = 0; tick < max_polls; ++tick) {
        bool all_done = true;
        for (std::size_t w = 0; w < cfg.workers; ++w) {
            if (exited[w])
                continue;
            if (!killed[w] && victims.count(w) != 0 &&
                pushInFlight(dir, w, kill_iter)) {
                ::kill(pids[w], SIGKILL);
                ::waitpid(pids[w], nullptr, 0);
                killed[w] = true;
                restart_at[w] = tick + 200;
                all_done = false;
                continue;
            }
            if (killed[w] && !restarted[w]) {
                if (tick >= restart_at[w]) {
                    pids[w] = spawnWorker(cfg, w, port);
                    restarted[w] = true;
                }
                all_done = false;
                continue;
            }
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
        if (all_done)
            break;
        ::usleep(1000);
    }

    for (std::size_t w = 0; w < cfg.workers; ++w) {
        EXPECT_TRUE(exited[w]) << "worker " << w << " never finished";
        if (!exited[w] && pids[w] > 0) {
            ::kill(pids[w], SIGKILL);
            ::waitpid(pids[w], nullptr, 0);
        }
        EXPECT_EQ(codes[w], 0) << "worker " << w << " exit code";
    }
    for (std::size_t w : victims) {
        EXPECT_TRUE(killed[w]) << "victim " << w << " was never "
                               << "caught with a push in flight";
    }

    int status = 0;
    ASSERT_EQ(::waitpid(server_pid, &status, 0), server_pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "server exit code";

    // Fault-free DES twin of the same seed/plan (safe: all forks are
    // done), then the invariant gate over the on-disk artifacts.
    const DesTwinResult twin = runDesTwin(cfg);
    EXPECT_TRUE(twin.done);

    ChaosCheckOptions opts;
    for (std::size_t w = 0; w < cfg.workers; ++w)
        if (killed[w])
            opts.killed_workers.push_back(w);
    const ChaosCheckResult res = checkChaosRun(cfg, opts);
    EXPECT_TRUE(res.ok) << res.report << "violations:\n"
                        << [&] {
                               std::ostringstream os;
                               for (const auto &v : res.violations)
                                   os << "  " << v << '\n';
                               return os.str();
                           }();
}

} // namespace
} // namespace core
} // namespace rog
