#include "net/transport/receiver.hpp"

#include <algorithm>

#include "common/crc32c.hpp"
#include "common/logging.hpp"

namespace rog {
namespace net {
namespace transport {

FrameReceiver::FrameReceiver(std::function<double()> clock, EventSink sink,
                             DeliverySink deliver)
    : clock_(std::move(clock)), sink_(std::move(sink)),
      deliver_(std::move(deliver))
{
    ROG_ASSERT(clock_, "frame receiver needs a clock");
}

void
FrameReceiver::emit(TransportEvent::Kind kind, LinkId link,
                    const MessageKey &key, std::uint32_t seq, double a)
{
    if (!sink_)
        return;
    TransportEvent ev;
    ev.t = clock_();
    ev.kind = kind;
    ev.link = link;
    ev.key = key;
    ev.chunk_seq = seq;
    ev.a = a;
    sink_(ev);
}

FrameReceiver::Result
FrameReceiver::onFrame(LinkId link, const FrameHeader &hdr,
                       std::span<const std::uint8_t> present)
{
    MessageKey key;
    key.worker = hdr.worker;
    key.version = hdr.version;
    key.row = hdr.row;
    key.pull = hdr.pull();

    Result r;
    const auto buf_key = std::make_pair(key, hdr.chunk_seq);
    const std::uint64_t off = hdr.payload_off;
    const std::uint64_t end = off + present.size();
    const bool whole = present.size() == hdr.payload_len;
    if (off == 0 && whole) {
        // The frame carries its whole chunk: nothing to reassemble,
        // and it supersedes any prefix an earlier attempt left.
        bufs_.erase(buf_key);
        r.prefix = end;
        decide(r, link, key, hdr, present);
        return r;
    }

    // Only a gap-free prefix is trustworthy. A fragment that starts
    // past it can never extend it: the stop-and-wait sender never
    // leaves a gap, so it is a stray, or a resumed tail whose prefix
    // this receiver no longer holds (a late duplicate of a delivered
    // message's tail, or one sent before this receiver restarted). It
    // is answered with the prefix held and none of its bytes are
    // kept; the sender resumes from that prefix.
    auto it = bufs_.find(buf_key);
    r.prefix = it == bufs_.end() ? 0 : it->second.prefix;
    if (off > r.prefix)
        return r;
    if (it == bufs_.end())
        it = bufs_.try_emplace(buf_key).first;
    ChunkBuf &buf = it->second;
    if (buf.bytes.size() < end)
        buf.bytes.resize(static_cast<std::size_t>(end), 0);
    std::copy(present.begin(), present.end(),
              buf.bytes.begin() + static_cast<std::size_t>(off));
    buf.prefix = std::max(buf.prefix, end);
    r.prefix = buf.prefix;

    // The sender always frames to the end of the chunk, so this frame
    // completes the chunk exactly when it arrived whole and the bytes
    // before it are contiguous.
    const std::uint64_t chunk_total = off + hdr.payload_len;
    if (!whole || buf.prefix < chunk_total)
        return r;

    decide(r, link, key, hdr,
           {buf.bytes.data(), static_cast<std::size_t>(chunk_total)});
    // Accepted or discarded, this chunk's buffer is spent: a CRC
    // failure restarts the chunk from offset zero (the prefix was
    // untrustworthy), and an accept has no more use for it.
    bufs_.erase(it);
    return r;
}

void
FrameReceiver::noteChunk(Result &r, LinkId link, const MessageKey &key,
                         std::uint32_t seq, bool fresh,
                         std::size_t chunk_len)
{
    if (!fresh) {
        ++r.duplicates;
        emit(TransportEvent::Kind::Duplicate, link, key, seq);
        return;
    }
    ++r.fresh_accepts;
    emit(TransportEvent::Kind::Accept, link, key, seq,
         static_cast<double>(chunk_len));
}

void
FrameReceiver::decide(Result &r, LinkId link, const MessageKey &key,
                      const FrameHeader &hdr,
                      std::span<const std::uint8_t> chunk)
{
    r.chunk_complete = true;
    r.crc_ok = crc32c(chunk) == hdr.payload_crc;
    if (!r.crc_ok) {
        emit(TransportEvent::Kind::CorruptDrop, link, key, hdr.chunk_seq,
             static_cast<double>(chunk.size()));
        return;
    }

    if (const std::uint32_t *prefix = delivered_.find(key)) {
        const auto extra = std::make_pair(key, hdr.chunk_seq);
        const bool fresh = hdr.chunk_seq >= *prefix &&
                           delivered_extra_.count(extra) == 0;
        noteChunk(r, link, key, hdr.chunk_seq, fresh, chunk.size());
        if (fresh)
            delivered_extra_.insert(extra);
        r.message_complete = true;
        return;
    }

    const auto it = messages_.try_emplace(key).first;
    MessageState &m = it->second;
    const bool fresh = m.accepted.insert(hdr.chunk_seq).second;
    noteChunk(r, link, key, hdr.chunk_seq, fresh, chunk.size());
    if (fresh && deliver_)
        m.chunks[hdr.chunk_seq].assign(chunk.begin(), chunk.end());
    if (m.accepted.size() != hdr.chunk_count)
        return;
    MessageState done = std::move(m);
    messages_.erase(it);
    deliver(r, link, key, hdr, std::move(done));
}

void
FrameReceiver::deliver(Result &r, LinkId link, const MessageKey &key,
                       const FrameHeader &hdr, MessageState &&m)
{
    r.message_complete = true;
    r.delivered = true;
    ++delivered_count_;

    // Keep only what dedup of late frames needs: the accepted prefix,
    // and any accepted chunk past it.
    std::uint32_t accepted_prefix = 0;
    for (const std::uint32_t seq : m.accepted) {
        if (seq == accepted_prefix)
            ++accepted_prefix;
        else
            delivered_extra_.insert({key, seq});
    }
    delivered_.insert(key, accepted_prefix);

    std::vector<std::uint8_t> payload;
    for (const auto &[seq, bytes] : m.chunks)
        payload.insert(payload.end(), bytes.begin(), bytes.end());
    emit(TransportEvent::Kind::Deliver, link, key, hdr.chunk_count);
    // Last: the sink may start new work on this receiver.
    if (deliver_)
        deliver_(key, std::move(payload));
}

void
FrameReceiver::restart()
{
    messages_.clear();
    bufs_.clear();
    delivered_ = DeliveredKeys{};
    delivered_extra_.clear();
}

std::size_t
FrameReceiver::largestChunkBuffer() const
{
    std::size_t most = 0;
    for (const auto &[key, buf] : bufs_)
        most = std::max(most, buf.bytes.size());
    return most;
}

std::size_t
FrameReceiver::DeliveredKeys::slotOf(const MessageKey &key) const
{
    // Row, worker and direction pack disjointly into one word; the
    // fmix64 finalizer spreads every input bit over the low bits.
    std::uint64_t h =
        static_cast<std::uint64_t>(key.version) * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<std::uint64_t>(key.row) << 17) ^
         (static_cast<std::uint64_t>(key.worker) << 1) ^
         (key.pull ? 1u : 0u);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h) & (slots_.size() - 1);
}

const std::uint32_t *
FrameReceiver::DeliveredKeys::find(const MessageKey &key) const
{
    if (size_ == 0)
        return nullptr;
    for (std::size_t i = slotOf(key);; i = (i + 1) & (slots_.size() - 1)) {
        const Slot &s = slots_[i];
        if (!s.used)
            return nullptr;
        if (s.version == key.version && s.row == key.row &&
            s.worker == key.worker && s.pull == key.pull)
            return &s.accepted_prefix;
    }
}

void
FrameReceiver::DeliveredKeys::insert(const MessageKey &key,
                                     std::uint32_t accepted_prefix)
{
    if (4 * (size_ + 1) > 3 * slots_.size()) {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
        size_ = 0;
        for (const Slot &s : old)
            if (s.used)
                insert({s.worker, s.version, s.row, s.pull},
                       s.accepted_prefix);
    }
    std::size_t i = slotOf(key);
    while (slots_[i].used)
        i = (i + 1) & (slots_.size() - 1);
    slots_[i] = Slot{key.version, key.row, accepted_prefix, key.worker,
                     key.pull, true};
    ++size_;
}

} // namespace transport
} // namespace net
} // namespace rog
