#include "net/transport/receiver.hpp"

#include <algorithm>

#include "common/crc32c.hpp"
#include "common/logging.hpp"

namespace rog {
namespace net {
namespace transport {

ChunkReceiver::ChunkReceiver(std::function<double()> clock, EventSink sink,
                             DeliverySink deliver)
    : clock_(std::move(clock)), sink_(std::move(sink)),
      deliver_(std::move(deliver))
{
    ROG_ASSERT(clock_, "chunk receiver needs a clock");
}

void
ChunkReceiver::emit(TransportEvent::Kind kind, LinkId link,
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

bool
ChunkReceiver::checkCrc(LinkId link, const MessageKey &key,
                        const FrameHeader &hdr,
                        std::span<const std::uint8_t> chunk)
{
    if (crc32c(chunk) == hdr.payload_crc)
        return true;
    emit(TransportEvent::Kind::CorruptDrop, link, key, hdr.chunk_seq,
         static_cast<double>(chunk.size()));
    return false;
}

void
ChunkReceiver::noteChunk(LinkId link, const MessageKey &key,
                         std::uint32_t seq, bool fresh,
                         std::size_t chunk_len, Decision &d)
{
    if (!fresh) {
        ++d.duplicates;
        emit(TransportEvent::Kind::Duplicate, link, key, seq);
        return;
    }
    ++d.fresh_accepts;
    emit(TransportEvent::Kind::Accept, link, key, seq,
         static_cast<double>(chunk_len));
}

void
ChunkReceiver::acceptOnce(MessageState &m, const FrameHeader &hdr,
                          std::span<const std::uint8_t> chunk, Decision &d)
{
    const bool fresh = m.accepted.insert(hdr.chunk_seq).second;
    noteChunk(m.link, m.key, hdr.chunk_seq, fresh, chunk.size(), d);
    if (fresh && deliver_)
        m.chunks[hdr.chunk_seq].assign(chunk.begin(), chunk.end());
}

ChunkReceiver::Decision
ChunkReceiver::onChunk(std::uint64_t instance, LinkId link,
                       const MessageKey &key, const FrameHeader &hdr,
                       std::span<const std::uint8_t> chunk,
                       bool duplicated_hint)
{
    MessageState &m = messages_[instance];
    m.link = link;
    m.key = key;
    m.chunk_count = hdr.chunk_count;

    Decision d;
    d.crc_ok = checkCrc(link, key, hdr, chunk);
    if (!d.crc_ok)
        return d;

    acceptOnce(m, hdr, chunk, d);
    if (duplicated_hint)
        acceptOnce(m, hdr, chunk, d); // delivered twice.

    d.message_complete = m.complete;
    if (m.complete || m.accepted.size() != m.chunk_count)
        return d;
    m.complete = true;
    d.message_complete = true;
    ++delivered_;
    std::vector<std::uint8_t> payload;
    for (const auto &[seq, bytes] : m.chunks)
        payload.insert(payload.end(), bytes.begin(), bytes.end());
    m.chunks.clear();
    emit(TransportEvent::Kind::Deliver, link, key, m.chunk_count);
    // Last: the sink may start new work on this receiver.
    if (deliver_)
        deliver_(key, std::move(payload));
    return d;
}

void
ChunkReceiver::release(std::uint64_t instance)
{
    messages_.erase(instance);
}

ChunkReceiver::Retired
ChunkReceiver::retire(std::uint64_t instance)
{
    auto it = messages_.find(instance);
    ROG_ASSERT(it != messages_.end() && it->second.complete,
               "retire of an undelivered message");
    Retired r;
    for (const std::uint32_t seq : it->second.accepted) {
        if (seq == r.accepted_prefix)
            ++r.accepted_prefix;
        else
            r.accepted_extra.push_back(seq);
    }
    messages_.erase(it);
    return r;
}

ChunkReceiver::Decision
ChunkReceiver::onRetiredChunk(LinkId link, const MessageKey &key,
                              const FrameHeader &hdr,
                              std::span<const std::uint8_t> chunk,
                              bool fresh)
{
    Decision d;
    d.crc_ok = checkCrc(link, key, hdr, chunk);
    if (!d.crc_ok)
        return d;
    noteChunk(link, key, hdr.chunk_seq, fresh, chunk.size(), d);
    d.message_complete = true;
    return d;
}

FrameAssembler::Result
FrameAssembler::onFrame(LinkId link, const FrameHeader &hdr,
                        std::span<const std::uint8_t> present)
{
    MessageKey key;
    key.worker = hdr.worker;
    key.version = hdr.version;
    key.row = hdr.row;
    key.pull = hdr.pull();

    const auto buf_key = std::make_pair(key, hdr.chunk_seq);
    ChunkBuf &buf = bufs_[buf_key];
    const std::uint64_t off = hdr.payload_off;
    const std::uint64_t end = off + present.size();
    if (buf.bytes.size() < end)
        buf.bytes.resize(static_cast<std::size_t>(end), 0);
    std::copy(present.begin(), present.end(),
              buf.bytes.begin() + static_cast<std::size_t>(off));
    // Only a gap-free prefix is trustworthy; the stop-and-wait sender
    // never leaves one, but a stray datagram cannot corrupt state.
    if (off <= buf.prefix)
        buf.prefix = std::max(buf.prefix, end);

    Result r;
    r.prefix = buf.prefix;

    // The sender always frames to the end of the chunk, so this frame
    // completes the chunk exactly when it arrived whole and the bytes
    // before it are contiguous.
    const std::uint64_t chunk_total = off + hdr.payload_len;
    const bool whole = present.size() == hdr.payload_len;
    if (!whole || buf.prefix < chunk_total)
        return r;

    decide(r, link, key, hdr,
           {buf.bytes.data(), static_cast<std::size_t>(chunk_total)});
    // Accepted or discarded, this chunk's buffer is spent: a CRC
    // failure restarts the chunk from offset zero (the prefix was
    // untrustworthy), and an accept has no more use for it.
    bufs_.erase(buf_key);
    return r;
}

void
FrameAssembler::decide(Result &r, LinkId link, const MessageKey &key,
                       const FrameHeader &hdr,
                       std::span<const std::uint8_t> chunk)
{
    r.chunk_complete = true;
    if (const std::uint32_t *prefix = delivered_.find(key)) {
        const auto extra = std::make_pair(key, hdr.chunk_seq);
        const bool fresh = hdr.chunk_seq >= *prefix &&
                           delivered_extra_.count(extra) == 0;
        r.decision = rx_.onRetiredChunk(link, key, hdr, chunk, fresh);
        if (r.decision.fresh_accepts > 0)
            delivered_extra_.insert(extra);
        return;
    }

    auto [it, fresh] = instances_.try_emplace(key, next_instance_);
    if (fresh)
        ++next_instance_;
    const std::uint64_t instance = it->second;
    r.decision = rx_.onChunk(instance, link, key, hdr, chunk, false);
    if (!r.decision.message_complete)
        return;

    // Delivered (the receiver handed the payload to its sink): keep
    // only what dedup of late frames needs.
    ChunkReceiver::Retired done = rx_.retire(instance);
    instances_.erase(key);
    delivered_.insert(key, done.accepted_prefix);
    for (const std::uint32_t seq : done.accepted_extra)
        delivered_extra_.insert({key, seq});
    r.delivered = true;
}

std::size_t
FrameAssembler::largestChunkBuffer() const
{
    std::size_t most = 0;
    for (const auto &[key, buf] : bufs_)
        most = std::max(most, buf.bytes.size());
    return most;
}

std::size_t
FrameAssembler::DeliveredKeys::slotOf(const MessageKey &key) const
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
FrameAssembler::DeliveredKeys::find(const MessageKey &key) const
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
FrameAssembler::DeliveredKeys::insert(const MessageKey &key,
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
