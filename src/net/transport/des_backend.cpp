#include "net/transport/des_backend.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"

namespace rog {
namespace net {
namespace transport {

// ---------------------------------------------------------------- timers

SimTimers::~SimTimers()
{
    *alive_ = false;
    for (auto &[id, ev] : pending_)
        sim_.cancel(ev);
}

TimerId
SimTimers::after(double delay_s, std::function<void()> fire)
{
    const TimerId id = next_++;
    pending_[id] =
        sim_.after(delay_s, [this, alive = alive_, id,
                             fire = std::move(fire)] {
            if (!*alive)
                return;
            pending_.erase(id);
            fire();
        });
    return id;
}

void
SimTimers::cancel(TimerId id)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return;
    sim_.cancel(it->second);
    pending_.erase(it);
}

// ----------------------------------------------------------- DesBackend

DesBackend::DesBackend(sim::Simulation &sim, Channel &channel,
                       DeliverySink deliver)
    : sim_(sim), channel_(channel), timers_(sim),
      receiver_([&sim] { return sim.now(); }, {}, std::move(deliver))
{
}

DesBackend::~DesBackend() { *alive_ = false; }

double
DesBackend::now() const
{
    return sim_.now();
}

TimerId
DesBackend::after(double delay_s, std::function<void()> fire)
{
    return timers_.after(delay_s, std::move(fire));
}

void
DesBackend::cancelTimer(TimerId id)
{
    timers_.cancel(id);
}

std::uint64_t
DesBackend::openSend(LinkId link, const MessageKey &key)
{
    (void)key; // the receiver reads it from each frame's header.
    const std::uint64_t id = next_send_++;
    streams_[id].link = link;
    return id;
}

void
DesBackend::sendFrame(std::uint64_t send_id, const FrameHeader &hdr,
                      std::span<const std::uint8_t> frag, double timeout_s,
                      VerdictCallback done, std::function<void()> drop)
{
    auto it = streams_.find(send_id);
    ROG_ASSERT(it != streams_.end(), "sendFrame on unopened stream");
    Stream &s = it->second;
    ROG_ASSERT(!s.pending, "transport stream is stop-and-wait");

    // Serialize onto the (simulated) wire; the receive side re-parses
    // it, so the frame round-trips exactly as over real sockets.
    s.frame_bytes = FrameHeader::kWireSize + frag.size();
    if (s.wire.size() < s.frame_bytes)
        s.wire = BufferPool::global().leaseBytes(s.frame_bytes);
    hdr.serialize({s.wire.data(), FrameHeader::kWireSize});
    std::copy(frag.begin(), frag.end(),
              s.wire.data() + FrameHeader::kWireSize);
    s.pending = true;
    s.done = std::move(done);
    s.drop = std::move(drop);

    const double timeout =
        std::isfinite(timeout_s) ? timeout_s : Channel::kNoTimeout;
    channel_.startTransfer(
        s.link, static_cast<double>(s.frame_bytes), timeout,
        [this, alive = alive_, send_id](TransferResult r) {
            if (*alive)
                onTransferDone(send_id, r);
        },
        [this, alive = alive_, send_id] {
            if (*alive)
                onTransferDrop(send_id);
        });
}

void
DesBackend::onTransferDone(std::uint64_t send_id, const TransferResult &r)
{
    auto it = streams_.find(send_id);
    if (it == streams_.end())
        return;
    Stream &s = it->second;
    s.pending = false;
    VerdictCallback done = std::move(s.done);
    s.done = nullptr;
    s.drop = nullptr;

    FrameVerdict v;
    // Whole bytes: a cut transfer keeps only the bytes fully through.
    v.bytes_sent = r.completed
                       ? s.frame_bytes
                       : static_cast<std::uint64_t>(std::floor(r.bytes_sent));
    if (v.bytes_sent < FrameHeader::kWireSize) {
        done(v); // the header never got through: nothing arrived.
        return;
    }

    // The receiver re-parses the header exactly as it was framed and
    // takes the payload bytes that got through, as a socket receiver
    // takes a (possibly truncated) datagram. Corruption flips the
    // first of them, as the UDP fault injector does; a frame that
    // delivers no payload byte arrives intact.
    const auto hdr =
        FrameHeader::parse({s.wire.data(), FrameHeader::kWireSize});
    ROG_ASSERT(hdr.has_value(), "transport framed an unparsable header");
    const std::span<std::uint8_t> present(
        s.wire.data() + FrameHeader::kWireSize,
        static_cast<std::size_t>(v.bytes_sent) - FrameHeader::kWireSize);
    if (r.corrupted && !present.empty())
        present[0] ^= 0x40;
    FrameReceiver::Result rx = receiver_.onFrame(s.link, *hdr, present);
    if (r.duplicated) {
        const FrameReceiver::Result again =
            receiver_.onFrame(s.link, *hdr, present);
        rx.fresh_accepts += again.fresh_accepts;
        rx.duplicates += again.duplicates;
        rx.message_complete = rx.message_complete || again.message_complete;
        rx.prefix = again.prefix;
    }

    if (!r.completed || !rx.chunk_complete) {
        // Cut mid-flow, or the receiver lacks bytes before this
        // fragment (it restarted mid-chunk): report the prefix it
        // holds, as a socket receiver's partial ACK does, so the
        // sender resumes there. What got through is what extends it.
        if (r.completed)
            v.bytes_sent =
                FrameHeader::kWireSize +
                (rx.prefix > hdr->payload_off
                     ? std::min<std::uint64_t>(
                           rx.prefix - hdr->payload_off, hdr->payload_len)
                     : 0);
        v.receiver_prefix = rx.prefix;
        done(v);
        return;
    }
    v.completed = true;
    v.crc_ok = rx.crc_ok;
    v.fresh_accepts = rx.fresh_accepts;
    v.duplicates = rx.duplicates;
    v.message_complete = rx.message_complete;
    done(v);
}

void
DesBackend::onTransferDrop(std::uint64_t send_id)
{
    auto it = streams_.find(send_id);
    if (it == streams_.end())
        return;
    std::function<void()> drop = std::move(it->second.drop);
    it->second.pending = false;
    it->second.done = nullptr;
    it->second.drop = nullptr;
    if (drop)
        drop();
}

void
DesBackend::closeSend(std::uint64_t send_id)
{
    streams_.erase(send_id);
}

void
DesBackend::setReceiverEventSink(EventSink sink)
{
    receiver_.setEventSink(std::move(sink));
}

// -------------------------------------------------------- ReplayBackend

ReplayBackend::ReplayBackend(sim::Simulation &sim,
                             const TransportTrace &trace)
    : sim_(sim), trace_(trace), timers_(sim)
{
}

double
ReplayBackend::now() const
{
    return sim_.now();
}

TimerId
ReplayBackend::after(double delay_s, std::function<void()> fire)
{
    return timers_.after(delay_s, std::move(fire));
}

void
ReplayBackend::cancelTimer(TimerId id)
{
    timers_.cancel(id);
}

std::uint64_t
ReplayBackend::openSend(LinkId link, const MessageKey &key)
{
    const std::uint64_t id = next_send_++;
    streams_[id] = Stream{link, key};
    return id;
}

void
ReplayBackend::sendFrame(std::uint64_t send_id, const FrameHeader &hdr,
                         std::span<const std::uint8_t> frag,
                         double timeout_s, VerdictCallback done,
                         std::function<void()> drop)
{
    (void)frag;
    (void)timeout_s;
    (void)drop;
    auto it = streams_.find(send_id);
    ROG_ASSERT(it != streams_.end(), "sendFrame on unopened stream");
    const Stream &s = it->second;

    FrameVerdict v;
    double elapsed = 0.0;
    if (next_attempt_ >= trace_.attempts.size()) {
        if (divergence_.empty()) {
            std::ostringstream os;
            os << "replay attempted more frames than the trace "
                  "recorded (record "
               << next_attempt_ << ", link=" << s.link << " seq="
               << hdr.chunk_seq << " off=" << hdr.payload_off << ")";
            divergence_ = os.str();
        }
    } else {
        const AttemptRecord &rec = trace_.attempts[next_attempt_];
        if (divergence_.empty() &&
            (rec.link != s.link || !(rec.key == s.key) ||
             rec.chunk_seq != hdr.chunk_seq ||
             rec.payload_off != hdr.payload_off)) {
            std::ostringstream os;
            os << "replay diverged at attempt record " << next_attempt_
               << ": wire saw link=" << rec.link << " w=" << rec.key.worker
               << " seq=" << rec.chunk_seq << " off=" << rec.payload_off
               << ", replay framed link=" << s.link
               << " w=" << s.key.worker << " seq=" << hdr.chunk_seq
               << " off=" << hdr.payload_off;
            divergence_ = os.str();
        }
        ++next_attempt_;
        elapsed = rec.elapsed_s;
        v.bytes_sent = rec.bytes_sent;
        switch (rec.outcome) {
        case AttemptOutcome::Timeout:
        case AttemptOutcome::Partial:
            break; // completed stays false.
        case AttemptOutcome::Corrupt:
            v.completed = true;
            break; // crc_ok stays false.
        case AttemptOutcome::Dup:
            v.completed = true;
            v.crc_ok = true;
            v.duplicates = 1;
            v.message_complete = rec.message_complete;
            break;
        case AttemptOutcome::Accept:
            v.completed = true;
            v.crc_ok = true;
            v.fresh_accepts = 1;
            v.message_complete = rec.message_complete;
            break;
        }
    }

    timers_.after(elapsed,
                  [done = std::move(done), v] { done(v); });
}

void
ReplayBackend::closeSend(std::uint64_t send_id)
{
    streams_.erase(send_id);
}

void
ReplayBackend::setReceiverEventSink(EventSink sink)
{
    (void)sink; // a replayed sender has no in-process receiver.
}

} // namespace transport
} // namespace net
} // namespace rog
