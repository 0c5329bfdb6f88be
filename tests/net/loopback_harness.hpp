/**
 * @file
 * Shared harness for loopback socket-transport tests: runs N chained
 * sends over a real UDP backend against an in-process receiver
 * endpoint on one PollLoop, and returns everything the assertions
 * need — results, totals, the merged event log, and the wire trace
 * (ready for cross-validation).
 */
#ifndef ROG_TESTS_NET_LOOPBACK_HARNESS_HPP
#define ROG_TESTS_NET_LOOPBACK_HARNESS_HPP

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/poll_loop.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/reliable_link.hpp"
#include "net/transport/socket_backend.hpp"
#include "net/transport/socket_fault.hpp"

namespace rog {
namespace net {
namespace transport {
namespace testing {

struct LoopbackSpec
{
    std::size_t sends = 1;
    std::size_t bytes = 4096;
    double deadline_rel = kNoDeadline; //!< per-send, from its start.
    TransportConfig config;
    SocketOptions opts;
    const SocketFaultPlan *faults = nullptr;
    double timeout_s = 20.0;
};

struct LoopbackOutcome
{
    bool ok = false;       //!< every send completed in time, no errors.
    std::string error;
    std::size_t completed = 0;
    std::size_t delivered = 0;    //!< sender-side delivered verdicts.
    std::size_t rx_delivered = 0; //!< receiver-side complete messages.
    std::vector<SendResult> results;
    TransportTotals totals;
    std::vector<TransportEvent> sender_log;
    std::vector<TransportEvent> receiver_log;
    std::vector<TransportEvent> merged_log;
    TransportTrace trace; //!< config + sends + attempts + rx.
};

inline MessageKey
loopbackKey(std::size_t i)
{
    MessageKey key;
    key.worker = 1;
    key.version = static_cast<std::int64_t>(i);
    key.row = 100 + static_cast<std::uint32_t>(i);
    key.pull = false;
    return key;
}

/** Fast-suite-friendly knobs: short waits, quick backoff. */
inline LoopbackSpec
quickSpec(std::size_t sends, std::size_t bytes)
{
    LoopbackSpec spec;
    spec.sends = sends;
    spec.bytes = bytes;
    spec.config.backoff_base_s = 0.005;
    spec.config.backoff_max_s = 0.05;
    spec.opts.ack_timeout_s = 0.05;
    return spec;
}

inline LoopbackOutcome
runLoopback(const LoopbackSpec &spec)
{
    LoopbackOutcome out;
    PollLoop loop;

    std::unique_ptr<SocketFaultInjector> faults;
    if (spec.faults != nullptr)
        faults =
            std::make_unique<SocketFaultInjector>(*spec.faults);

    out.trace.config.backend = "udp";
    out.trace.config.chunk_bytes = spec.config.chunk_bytes;
    out.trace.config.max_attempts = spec.config.max_attempts_per_chunk;
    out.trace.config.backoff_base_s = spec.config.backoff_base_s;
    out.trace.config.backoff_max_s = spec.config.backoff_max_s;
    out.trace.config.jitter_frac = spec.config.jitter_frac;
    out.trace.config.jitter_seed = spec.config.jitter_seed;
    out.trace.config.resume_from_offset = spec.config.resume_from_offset;

    UdpReceiverEndpoint ep(loop, 0);
    if (!ep.ok()) {
        out.error = ep.error();
        return out;
    }
    UdpBackend sock(loop, "127.0.0.1", ep.port(), spec.opts, faults.get(),
                    &out.trace);
    if (!sock.ok()) {
        out.error = sock.error();
        return out;
    }
    ep.setTrace(&out.trace);
    ep.setEventSink([&out](const TransportEvent &ev) {
        out.receiver_log.push_back(ev);
    });

    ReliableLink link(sock, spec.config, [&out](const TransportEvent &ev) {
        out.sender_log.push_back(ev);
    });
    std::function<void(std::size_t)> issue = [&](std::size_t i) {
        if (i >= spec.sends)
            return;
        const MessageKey key = loopbackKey(i);
        SendRecord rec;
        rec.link = 0;
        rec.key = key;
        rec.payload_bytes = spec.bytes;
        rec.deadline_s = spec.deadline_rel;
        out.trace.sends.push_back(rec);
        const double deadline = std::isfinite(spec.deadline_rel)
                                    ? sock.now() + spec.deadline_rel
                                    : kNoDeadline;
        link.startSend(0, key,
                       synthesizeMessage(key, spec.bytes,
                                         spec.config.chunk_bytes),
                       deadline, [&, i](SendResult r) {
                           ++out.completed;
                           if (r.delivered)
                               ++out.delivered;
                           out.results.push_back(r);
                           issue(i + 1);
                       });
    };
    issue(0);

    const bool done = loop.runUntil(
        [&] { return out.completed >= spec.sends; }, spec.timeout_s);
    if (!done) {
        out.error = "loopback run timed out";
        return out;
    }
    if (!sock.ok() || !ep.ok()) {
        out.error = !sock.ok() ? sock.error() : ep.error();
        return out;
    }

    out.rx_delivered = ep.deliveredMessages();
    out.totals = link.totals();
    out.merged_log = out.sender_log;
    out.merged_log.insert(out.merged_log.end(), out.receiver_log.begin(),
                          out.receiver_log.end());
    out.ok = true;
    return out;
}

/** Count events of one kind. */
inline std::size_t
countKind(const std::vector<TransportEvent> &log,
          TransportEvent::Kind kind)
{
    std::size_t n = 0;
    for (const TransportEvent &ev : log)
        if (ev.kind == kind)
            ++n;
    return n;
}

} // namespace testing
} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_TESTS_NET_LOOPBACK_HARNESS_HPP
