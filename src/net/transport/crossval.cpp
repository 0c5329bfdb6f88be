#include "net/transport/crossval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "common/crc32c.hpp"
#include "common/logging.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/receiver.hpp"
#include "net/transport/reliable_link.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {

namespace {

TransportConfig
configOf(const TraceConfig &tc)
{
    TransportConfig c;
    c.chunk_bytes = tc.chunk_bytes;
    c.max_attempts_per_chunk = tc.max_attempts;
    c.backoff_base_s = tc.backoff_base_s;
    c.backoff_max_s = tc.backoff_max_s;
    c.jitter_frac = tc.jitter_frac;
    c.jitter_seed = tc.jitter_seed;
    c.resume_from_offset = tc.resume_from_offset;
    return c;
}

/** First line where two normalized renderings differ, with context. */
std::string
firstDiff(const std::string &recorded, const std::string &replayed,
          const char *side)
{
    std::istringstream a(recorded), b(replayed);
    std::string la, lb;
    std::size_t line = 0;
    for (;;) {
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool gb = static_cast<bool>(std::getline(b, lb));
        ++line;
        if (!ga && !gb)
            return "";
        if (ga != gb || la != lb) {
            std::ostringstream os;
            os << side << " log diverges at line " << line
               << "\n  recorded: " << (ga ? la : "<end of log>")
               << "\n  replayed: " << (gb ? lb : "<end of log>");
            return os.str();
        }
    }
}

} // namespace

ReplayResult
replaySenderTrace(const TransportTrace &trace)
{
    ReplayResult res;
    sim::Simulation sim;
    ReplayBackend backend(sim, trace);
    ReliableLink link(backend, configOf(trace.config),
                      [&res](const TransportEvent &ev) {
                          res.log.push_back(ev);
                      });

    // The recording harness issues sends strictly one after another
    // (stop-and-wait end to end), so the replay chains them the same
    // way; each deadline is relative to its own send's start.
    std::size_t completed = 0;
    std::function<void(std::size_t)> issue = [&](std::size_t i) {
        if (i >= trace.sends.size())
            return;
        const SendRecord &rec = trace.sends[i];
        const double deadline =
            std::isfinite(rec.deadline_s)
                ? backend.now() + rec.deadline_s
                : kNoDeadline;
        const std::vector<std::uint8_t> payload = synthesizeMessage(
            rec.key, rec.payload_bytes, trace.config.chunk_bytes);
        link.startSend(rec.link, rec.key, payload, deadline,
                       [&, i](const SendResult &) {
                           ++completed;
                           issue(i + 1);
                       });
    };
    issue(0);
    sim.run();

    res.divergence = backend.divergence();
    res.sends_completed = completed;
    if (res.divergence.empty() &&
        backend.attemptsConsumed() != trace.attempts.size()) {
        std::ostringstream os;
        os << "replay consumed " << backend.attemptsConsumed() << " of "
           << trace.attempts.size() << " recorded attempts";
        res.divergence = os.str();
    }
    return res;
}

ReplayResult
replayReceiverTrace(const TransportTrace &trace)
{
    ReplayResult res;

    // Each message's bytes, exactly as the sender framed them.
    std::map<MessageKey, std::vector<std::uint8_t>> msgs;
    for (const SendRecord &s : trace.sends)
        msgs[s.key] = synthesizeMessage(s.key, s.payload_bytes,
                                        trace.config.chunk_bytes);

    FrameReceiver rx([] { return 0.0; }, [&res](const TransportEvent &ev) {
        res.log.push_back(ev);
    });

    const TransportConfig config = configOf(trace.config);
    std::vector<std::uint8_t> present;
    for (const RxRecord &rec : trace.rx) {
        auto mit = msgs.find(rec.key);
        if (mit == msgs.end()) {
            if (res.divergence.empty())
                res.divergence = "rx record for a message never sent";
            continue;
        }
        const std::vector<std::uint8_t> &msg = mit->second;
        const std::uint32_t chunk_count = config.chunkCount(msg.size());
        if (rec.chunk_seq >= chunk_count) {
            if (res.divergence.empty())
                res.divergence = "rx record beyond the message's chunks";
            continue;
        }

        // The chunk's bytes, cut to this frame's recorded window.
        const std::size_t start =
            static_cast<std::size_t>(rec.chunk_seq) * config.chunk_bytes;
        const std::span<const std::uint8_t> chunk =
            std::span<const std::uint8_t>(msg).subspan(
                start, std::min(config.chunk_bytes, msg.size() - start));

        FrameHeader hdr;
        hdr.flags = rec.key.pull ? kFlagPull : 0;
        hdr.worker = rec.key.worker;
        hdr.version = rec.key.version;
        hdr.row = rec.key.row;
        hdr.chunk_seq = rec.chunk_seq;
        hdr.chunk_count = chunk_count;
        hdr.payload_off = rec.payload_off;
        hdr.payload_len = rec.frag_len;
        hdr.payload_crc = crc32c(chunk);

        const auto off = static_cast<std::size_t>(
            std::min<std::uint64_t>(rec.payload_off, chunk.size()));
        const std::size_t got =
            std::min<std::size_t>(rec.got, chunk.size() - off);
        present.assign(chunk.begin() + off, chunk.begin() + off + got);
        if (!rec.crc_ok && !present.empty()) {
            // The wire corrupted this delivery; garble one byte so the
            // replayed verdict is computed over bad bytes, not assumed.
            present[0] ^= 0x40;
        }
        rx.onFrame(rec.link, hdr, {present.data(), present.size()});
    }

    res.sends_completed = rx.deliveredMessages();
    return res;
}

CrossvalReport
crossValidate(const TransportTrace &trace,
              const std::vector<TransportEvent> &recorded)
{
    CrossvalReport report;

    const ReplayResult sender = replaySenderTrace(trace);
    const ReplayResult receiver = replayReceiverTrace(trace);
    report.sender_events = sender.log.size();
    report.receiver_events = receiver.log.size();

    if (!sender.divergence.empty()) {
        report.detail = "sender replay: " + sender.divergence;
        return report;
    }
    if (!receiver.divergence.empty()) {
        report.detail = "receiver replay: " + receiver.divergence;
        return report;
    }

    // The replayed sender log can contain no receiver-side events (the
    // replay has no in-process receiver) but filter anyway: the
    // comparison must be side-by-side whatever the backend logged.
    const std::string diff_s = firstDiff(
        renderNormalized(filterSide(recorded, EventSide::Sender)),
        renderNormalized(filterSide(sender.log, EventSide::Sender)),
        "sender");
    if (!diff_s.empty()) {
        report.detail = diff_s;
        return report;
    }
    const std::string diff_r = firstDiff(
        renderNormalized(filterSide(recorded, EventSide::Receiver)),
        renderNormalized(filterSide(receiver.log, EventSide::Receiver)),
        "receiver");
    if (!diff_r.empty()) {
        report.detail = diff_r;
        return report;
    }

    report.ok = true;
    return report;
}

} // namespace transport
} // namespace net
} // namespace rog
