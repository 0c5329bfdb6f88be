/**
 * @file
 * True multi-process socket tests: the receiver endpoint runs in a
 * forked child on its own PollLoop, the sender stays in the parent,
 * and the only things they share are the wire and a pipe carrying the
 * ephemeral port. The child writes its event log and rx trace to temp
 * files; the parent merges them with its own records and asserts the
 * whole run cross-validates against the DES replay — the end-to-end
 * recipe `rog_transportd` automates, proven here process-for-process.
 *
 * These tests need working loopback sockets and fork(), so they carry
 * the `socket` ctest label instead of `fast` and are exercised by the
 * dedicated transport-socket CI job.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "common/poll_loop.hpp"
#include "net/transport/crossval.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/reliable_link.hpp"
#include "net/transport/socket_backend.hpp"
#include "net/transport/socket_fault.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

MessageKey
sendKey(std::size_t i)
{
    MessageKey key;
    key.worker = 1;
    key.version = static_cast<std::int64_t>(i);
    key.row = 100 + static_cast<std::uint32_t>(i);
    key.pull = false;
    return key;
}

TraceConfig
traceConfigFor(const TransportConfig &cfg)
{
    TraceConfig tc;
    tc.backend = "udp";
    tc.chunk_bytes = cfg.chunk_bytes;
    tc.max_attempts = cfg.max_attempts_per_chunk;
    tc.backoff_base_s = cfg.backoff_base_s;
    tc.backoff_max_s = cfg.backoff_max_s;
    tc.jitter_frac = cfg.jitter_frac;
    tc.jitter_seed = cfg.jitter_seed;
    tc.resume_from_offset = cfg.resume_from_offset;
    return tc;
}

/** Receiver process body. Never returns into gtest: _exit()s. */
[[noreturn]] void
receiverChild(std::size_t expect, const TraceConfig &tc, int port_fd,
              const std::string &events_path,
              const std::string &trace_path)
{
    PollLoop loop;
    UdpReceiverEndpoint ep(loop, 0);
    const std::uint16_t port = ep.port();
    if (!ep.ok())
        _exit(2);
    TransportTrace rx_trace;
    rx_trace.config = tc;
    std::vector<TransportEvent> events;
    ep.setTrace(&rx_trace);
    ep.setEventSink(
        [&events](const TransportEvent &e) { events.push_back(e); });
    if (::write(port_fd, &port, sizeof port) !=
        static_cast<ssize_t>(sizeof port))
        _exit(3);
    ::close(port_fd);

    if (!loop.runUntil(
            [&] { return ep.deliveredMessages() >= expect; }, 15.0))
        _exit(4);
    // Linger briefly so the final ACK actually leaves the machine.
    loop.runUntil([] { return false; }, 0.3);
    if (!ep.ok())
        _exit(5);

    std::ofstream ev(events_path);
    for (const TransportEvent &e : events)
        ev << toString(e) << "\n";
    std::ofstream tr(trace_path);
    tr << rx_trace.toText();
    ev.flush();
    tr.flush();
    _exit((ev && tr) ? 0 : 6);
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

struct RunSpec
{
    std::size_t sends = 3;
    std::size_t bytes = 50000;
    const SocketFaultPlan *faults = nullptr;
};

void
runMultiProcess(const RunSpec &spec)
{
    char dir_tmpl[] = "/tmp/rog_socket_test_XXXXXX";
    char *dir = ::mkdtemp(dir_tmpl);
    ASSERT_NE(dir, nullptr) << "mkdtemp failed";
    const std::string events_path = std::string(dir) + "/rx.events";
    const std::string trace_path = std::string(dir) + "/rx.trace";

    TransportConfig cfg;
    cfg.backoff_base_s = 0.005;
    cfg.backoff_max_s = 0.05;
    const TraceConfig tc = traceConfigFor(cfg);

    int port_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
        ::close(port_pipe[0]);
        receiverChild(spec.sends, tc, port_pipe[1], events_path,
                      trace_path);
    }
    ::close(port_pipe[1]);
    std::uint16_t port = 0;
    ASSERT_EQ(::read(port_pipe[0], &port, sizeof port),
              static_cast<ssize_t>(sizeof port));
    ::close(port_pipe[0]);
    ASSERT_NE(port, 0);

    // Sender side, in this process.
    PollLoop loop;
    std::unique_ptr<SocketFaultInjector> faults;
    if (spec.faults != nullptr)
        faults =
            std::make_unique<SocketFaultInjector>(*spec.faults);
    TransportTrace trace;
    trace.config = tc;
    SocketOptions opts;
    opts.ack_timeout_s = 0.05;
    UdpBackend sock(loop, "127.0.0.1", port, opts, faults.get(), &trace);
    ASSERT_TRUE(sock.ok()) << sock.error();

    std::vector<TransportEvent> merged;
    ReliableLink link(sock, cfg, [&merged](const TransportEvent &ev) {
        merged.push_back(ev);
    });
    std::size_t completed = 0;
    std::size_t delivered = 0;
    std::function<void(std::size_t)> issue = [&](std::size_t i) {
        if (i >= spec.sends)
            return;
        SendRecord rec;
        rec.link = 0;
        rec.key = sendKey(i);
        rec.payload_bytes = spec.bytes;
        rec.deadline_s = std::numeric_limits<double>::infinity();
        trace.sends.push_back(rec);
        link.startSend(0, rec.key,
                       synthesizeMessage(rec.key, spec.bytes,
                                         cfg.chunk_bytes),
                       kNoDeadline, [&, i](SendResult r) {
                           ++completed;
                           if (r.delivered)
                               ++delivered;
                           issue(i + 1);
                       });
    };
    issue(0);
    ASSERT_TRUE(loop.runUntil([&] { return completed >= spec.sends; },
                              15.0))
        << "sender timed out; " << completed << "/" << spec.sends;
    EXPECT_EQ(delivered, spec.sends);
    ASSERT_TRUE(sock.ok()) << sock.error();

    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0)
        << "receiver child failed with exit code "
        << WEXITSTATUS(status);

    // Merge the two halves and replay the whole run through the twin.
    const TraceParseResult rx_trace =
        TransportTrace::tryParse(slurp(trace_path));
    ASSERT_TRUE(rx_trace.ok()) << rx_trace.error;
    const LogParseResult rx_log = tryParseLog(slurp(events_path));
    ASSERT_TRUE(rx_log.ok()) << rx_log.error;
    trace.rx = rx_trace.trace.rx;
    merged.insert(merged.end(), rx_log.events.begin(),
                  rx_log.events.end());

    const CrossvalReport report = crossValidate(trace, merged);
    EXPECT_TRUE(report.ok) << report.detail;
    EXPECT_GT(report.sender_events, 0u);
    EXPECT_GT(report.receiver_events, 0u);

    ::unlink(events_path.c_str());
    ::unlink(trace_path.c_str());
    ::rmdir(dir);
}

TEST(TransportSocket, UdpCleanTwoProcessRunCrossValidates)
{
    runMultiProcess(RunSpec{});
}

TEST(TransportSocket, UdpFaultyTwoProcessRunCrossValidates)
{
    SocketFaultPlan plan;
    plan.seed = 13;
    plan.drop_p = 0.15;
    plan.dup_p = 0.1;
    plan.trunc_p = 0.2;
    plan.corrupt_p = 0.1;
    plan.delay_p = 0.1;
    plan.delay_s = 0.002;
    RunSpec spec;
    spec.sends = 4;
    spec.bytes = 60000;
    spec.faults = &plan;
    runMultiProcess(spec);
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
