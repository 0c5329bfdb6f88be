/**
 * @file
 * rog_transportd — real-socket transport endpoint and cross-validation
 * driver.
 *
 * Subcommands:
 *   recv      bind a receiver endpoint, ACK frames, record the event
 *             log and rx trace. Prints "port <N>" once bound so a
 *             driving script can start the sender.
 *   send      chain N sequential sends over UDP, recording the
 *             event log and wire trace (config + sends + attempts).
 *   loopback  both endpoints in one process on one poll loop; writes
 *             the merged trace and event log, and (with --check)
 *             cross-validates against the DES twin in-process.
 *   crossval  replay a recorded trace through the DES twin and compare
 *             against the recorded event log (no sockets touched —
 *             safe for restricted CI).
 *
 * `loopback --backend des` runs the simulated twin instead of sockets
 * (useful to eyeball both timelines side by side); `udp`, the default,
 * runs real sockets.
 *
 * Examples:
 *   rog_transportd recv --port 0 --expect 4 \
 *       --events rx.log --trace rx.trace
 *   rog_transportd send --host 127.0.0.1 --port 9000 --sends 4 \
 *       --bytes 40000 --faults "seed=7 drop=0.1 trunc=0.15" \
 *       --events tx.log --trace tx.trace
 *   rog_transportd loopback --sends 4 --bytes 40000 \
 *       --faults "seed=7 drop=0.1" --events run.log --trace run.trace \
 *       --check
 *   rog_transportd crossval --trace run.trace --events run.log
 */
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/args.hpp"
#include "common/logging.hpp"
#include "common/poll_loop.hpp"
#include "net/channel.hpp"
#include "net/transport/crossval.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/event_log.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/reliable_link.hpp"
#include "net/transport/socket_backend.hpp"
#include "net/transport/socket_fault.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace rog;
using namespace rog::net;
using namespace rog::net::transport;

int
usage()
{
    std::cerr <<
        "usage: rog_transportd <recv|send|loopback|crossval> [options]\n"
        "  recv     --port N (0=ephemeral)\n"
        "           --expect N --timeout S --events F --trace F\n"
        "  send     --host H --port N --sends N\n"
        "           --bytes B --deadline S --faults SPEC --chunk B\n"
        "           --attempts N --ack-timeout S --no-resume\n"
        "           --timeout S --events F --trace F\n"
        "  loopback same knobs as send plus --backend des|udp, --check\n"
        "  crossval --trace F --events F\n";
    return 2;
}

TransportConfig
transportConfig(const Args &args)
{
    TransportConfig cfg;
    cfg.chunk_bytes = args.getSize("chunk", cfg.chunk_bytes);
    if (cfg.chunk_bytes == 0 || cfg.chunk_bytes > kMaxChunkBytes)
        throw std::invalid_argument("--chunk must be in [1, " +
                                    std::to_string(kMaxChunkBytes) + "]");
    cfg.max_attempts_per_chunk =
        args.getSize("attempts", cfg.max_attempts_per_chunk);
    if (args.has("no-resume"))
        cfg.resume_from_offset = false;
    return cfg;
}

/** The trace header of a socket run. */
TraceConfig
traceConfig(const TransportConfig &cfg)
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

bool
writeFile(const std::string &path, const std::string &text)
{
    if (path.empty())
        return true;
    std::ofstream os(path);
    os << text;
    return static_cast<bool>(os);
}

std::string
eventsText(const std::vector<TransportEvent> &log)
{
    std::string out;
    for (const TransportEvent &ev : log) {
        out += toString(ev);
        out += '\n';
    }
    return out;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::ostringstream os;
    os << is.rdbuf();
    out = os.str();
    return true;
}

/**
 * Drive @p link through @p total sequential messages of @p bytes keyed
 * test bytes each (synthesizeMessage, so a replay can regenerate
 * them). Sends are chained (each starts from the previous one's
 * callback) so the wire sees one stop-and-wait conversation: the shape
 * the replay harness reproduces.
 */
struct SendDriver
{
    ReliableLink &link;
    TransportTrace *trace = nullptr;
    std::size_t total = 0;
    std::size_t bytes = 0;
    std::size_t chunk_bytes = 0;
    double deadline_rel = kNoDeadline;
    std::size_t completed = 0;
    std::size_t delivered = 0;

    void
    issue(std::size_t i)
    {
        if (i >= total)
            return;
        const MessageKey key = sendKey(i);
        if (trace != nullptr) {
            SendRecord rec;
            rec.link = 0;
            rec.key = key;
            rec.payload_bytes = bytes;
            rec.deadline_s = deadline_rel;
            trace->sends.push_back(rec);
        }
        const double deadline =
            std::isfinite(deadline_rel)
                ? link.backend().now() + deadline_rel
                : kNoDeadline;
        const std::vector<std::uint8_t> payload = synthesizeMessage(
            key, bytes, chunk_bytes);
        link.startSend(0, key, payload, deadline,
                       [this, i](const SendResult &r) {
                           ++completed;
                           if (r.delivered)
                               ++delivered;
                           issue(i + 1);
                       });
    }

    bool done() const { return completed >= total; }
};

/** The --sends/--bytes/--deadline driver over @p link. */
SendDriver
sendDriver(ReliableLink &link, TransportTrace *trace,
           const TransportConfig &cfg, const Args &args)
{
    return {link, trace, args.getSize("sends", 1),
            args.getSize("bytes", 4096), cfg.chunk_bytes,
            args.has("deadline") ? args.getDouble("deadline", 0.0)
                                 : kNoDeadline};
}

int
runRecv(const Args &args)
{
    const auto port =
        static_cast<std::uint16_t>(args.getSize("port", 0));
    const std::size_t expect = args.getSize("expect", 1);
    const double timeout = args.getDouble("timeout", 30.0);

    PollLoop loop;
    UdpReceiverEndpoint ep(loop, port);
    if (!ep.ok()) {
        std::cerr << "recv: " << ep.error() << "\n";
        return 1;
    }
    TransportTrace trace;
    trace.config.backend = "udp";
    std::vector<TransportEvent> events;
    ep.setTrace(&trace);
    ep.setEventSink(
        [&events](const TransportEvent &ev) { events.push_back(ev); });
    std::cout << "port " << ep.port() << "\n" << std::flush;

    const bool got = loop.runUntil(
        [&] { return ep.deliveredMessages() >= expect; }, timeout);
    // Linger: the last ACK must still go out.
    loop.runUntil([] { return false; }, 0.2);

    if (!writeFile(args.get("events"), eventsText(events)) ||
        !writeFile(args.get("trace"), trace.toText())) {
        std::cerr << "recv: cannot write output files\n";
        return 1;
    }
    std::cout << "delivered " << ep.deliveredMessages() << "\n";
    return got ? 0 : 1;
}

int
runSend(const Args &args)
{
    const std::string host = args.get("host", "127.0.0.1");
    const auto port =
        static_cast<std::uint16_t>(args.getSize("port", 0));
    const double timeout = args.getDouble("timeout", 30.0);
    if (port == 0) {
        std::cerr << "send: --port is required\n";
        return 2;
    }

    const TransportConfig cfg = transportConfig(args);
    TransportTrace trace;
    trace.config = traceConfig(cfg);

    std::unique_ptr<SocketFaultInjector> faults;
    if (args.has("faults")) {
        const auto parsed =
            SocketFaultPlan::tryParse(args.get("faults"));
        if (!parsed.ok()) {
            std::cerr << "send: bad --faults: " << parsed.error << "\n";
            return 2;
        }
        faults =
            std::make_unique<SocketFaultInjector>(parsed.plan);
    }

    PollLoop loop;
    SocketOptions opts;
    opts.ack_timeout_s = args.getDouble("ack-timeout", opts.ack_timeout_s);
    UdpBackend sock(loop, host, port, opts, faults.get(), &trace);
    if (!sock.ok()) {
        std::cerr << "send: " << sock.error() << "\n";
        return 1;
    }

    std::vector<TransportEvent> events;
    ReliableLink link(sock, cfg, [&events](const TransportEvent &ev) {
        events.push_back(ev);
    });
    SendDriver driver = sendDriver(link, &trace, cfg, args);
    driver.issue(0);
    const bool done =
        loop.runUntil([&] { return driver.done(); }, timeout);
    if (!sock.ok()) {
        std::cerr << "send: " << sock.error() << "\n";
        return 1;
    }

    if (!writeFile(args.get("events"), eventsText(events)) ||
        !writeFile(args.get("trace"), trace.toText())) {
        std::cerr << "send: cannot write output files\n";
        return 1;
    }
    std::cout << "completed " << driver.completed << " delivered "
              << driver.delivered << "\n";
    return done ? 0 : 1;
}

int
runLoopbackDes(const Args &args)
{
    // The deterministic twin, for eyeballing against a socket run:
    // same sends, virtual time, in-process receiver.
    const TransportConfig cfg = transportConfig(args);
    sim::Simulation sim;
    // One looped 0.1 s sample: constant, and 8 bytes.
    Channel channel(sim, {BandwidthTrace::constant(
                             args.getDouble("bandwidth", 1e6), 0.1)});
    DesBackend backend(sim, channel);
    std::vector<TransportEvent> events;
    ReliableLink link(backend, cfg, [&events](const TransportEvent &ev) {
        events.push_back(ev);
    });
    SendDriver driver = sendDriver(link, nullptr, cfg, args);
    driver.issue(0);
    sim.run();
    if (!writeFile(args.get("events"), eventsText(events))) {
        std::cerr << "loopback: cannot write events file\n";
        return 1;
    }
    std::cout << "completed " << driver.completed << " delivered "
              << driver.delivered << "\n";
    return driver.done() ? 0 : 1;
}

int
runLoopback(const Args &args)
{
    const std::string backend = args.get("backend", "udp");
    if (backend == "des")
        return runLoopbackDes(args);
    if (backend != "udp") {
        std::cerr << "loopback: --backend must be des|udp\n";
        return 2;
    }
    const double timeout = args.getDouble("timeout", 30.0);

    const TransportConfig cfg = transportConfig(args);
    TransportTrace trace;
    trace.config = traceConfig(cfg);

    std::unique_ptr<SocketFaultInjector> faults;
    if (args.has("faults")) {
        const auto parsed =
            SocketFaultPlan::tryParse(args.get("faults"));
        if (!parsed.ok()) {
            std::cerr << "loopback: bad --faults: " << parsed.error
                      << "\n";
            return 2;
        }
        faults =
            std::make_unique<SocketFaultInjector>(parsed.plan);
    }

    PollLoop loop;
    SocketOptions opts;
    opts.ack_timeout_s = args.getDouble("ack-timeout", opts.ack_timeout_s);

    UdpReceiverEndpoint ep(loop, 0);
    if (!ep.ok()) {
        std::cerr << "loopback: " << ep.error() << "\n";
        return 1;
    }
    UdpBackend sock(loop, "127.0.0.1", ep.port(), opts, faults.get(),
                    &trace);
    if (!sock.ok()) {
        std::cerr << "loopback: " << sock.error() << "\n";
        return 1;
    }
    std::vector<TransportEvent> rx_events;
    ep.setTrace(&trace);
    ep.setEventSink([&rx_events](const TransportEvent &ev) {
        rx_events.push_back(ev);
    });

    // Sender events first, then the receiver's: crossValidate compares
    // each side on its own.
    std::vector<TransportEvent> merged;
    ReliableLink link(sock, cfg, [&merged](const TransportEvent &ev) {
        merged.push_back(ev);
    });
    SendDriver driver = sendDriver(link, &trace, cfg, args);
    driver.issue(0);
    const bool done =
        loop.runUntil([&] { return driver.done(); }, timeout);
    if (!done) {
        std::cerr << "loopback: timed out with " << driver.completed
                  << "/" << driver.total << " sends completed\n";
        return 1;
    }
    if (!sock.ok() || !ep.ok()) {
        std::cerr << "loopback: "
                  << (!sock.ok() ? sock.error() : ep.error()) << "\n";
        return 1;
    }

    merged.insert(merged.end(), rx_events.begin(), rx_events.end());

    if (!writeFile(args.get("events"), eventsText(merged)) ||
        !writeFile(args.get("trace"), trace.toText())) {
        std::cerr << "loopback: cannot write output files\n";
        return 1;
    }
    std::cout << "completed " << driver.completed << " delivered "
              << driver.delivered << "\n";

    if (args.has("check")) {
        const CrossvalReport report = crossValidate(trace, merged);
        if (!report.ok) {
            std::cerr << "loopback: cross-validation FAILED\n"
                      << report.detail << "\n";
            return 1;
        }
        std::cout << "crossval ok: " << report.sender_events
                  << " sender events, " << report.receiver_events
                  << " receiver events match the DES replay\n";
    }
    return 0;
}

int
runCrossval(const Args &args)
{
    std::string trace_text, events_text;
    if (!readFile(args.get("trace"), trace_text)) {
        std::cerr << "crossval: cannot read --trace\n";
        return 2;
    }
    if (!readFile(args.get("events"), events_text)) {
        std::cerr << "crossval: cannot read --events\n";
        return 2;
    }
    const TraceParseResult trace = TransportTrace::tryParse(trace_text);
    if (!trace.ok()) {
        std::cerr << "crossval: bad trace: " << trace.error << "\n";
        return 2;
    }
    const LogParseResult log = tryParseLog(events_text);
    if (!log.ok()) {
        std::cerr << "crossval: bad event log: " << log.error << "\n";
        return 2;
    }
    const CrossvalReport report =
        crossValidate(trace.trace, log.events);
    if (!report.ok) {
        std::cerr << "crossval FAILED\n" << report.detail << "\n";
        return 1;
    }
    std::cout << "crossval ok: " << report.sender_events
              << " sender events, " << report.receiver_events
              << " receiver events match the DES replay\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::set<std::string> known = {
        "backend", "host",    "port",     "expect",  "timeout",
        "events",  "trace",   "sends",    "bytes",   "deadline",
        "faults",  "chunk",   "attempts", "no-resume",
        "ack-timeout", "check", "bandwidth",
    };
    try {
        const rog::Args args(argc, argv, known);
        if (args.positional().size() != 1)
            return usage();
        const std::string &mode = args.positional()[0];
        if (args.has("backend") && mode != "loopback")
            return usage();
        if (mode == "recv")
            return runRecv(args);
        if (mode == "send")
            return runSend(args);
        if (mode == "loopback")
            return runLoopback(args);
        if (mode == "crossval")
            return runCrossval(args);
        return usage();
    } catch (const std::exception &e) {
        std::cerr << "rog_transportd: " << e.what() << "\n";
        return 2;
    }
}
