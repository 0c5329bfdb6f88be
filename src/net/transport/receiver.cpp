#include "net/transport/receiver.hpp"

#include <algorithm>

#include "common/crc32c.hpp"
#include "common/logging.hpp"

namespace rog {
namespace net {
namespace transport {

ChunkReceiver::ChunkReceiver(std::function<double()> clock, EventSink sink)
    : clock_(std::move(clock)), sink_(std::move(sink))
{
    ROG_ASSERT(clock_, "chunk receiver needs a clock");
}

void
ChunkReceiver::open(std::uint64_t instance, bool store_payload)
{
    MessageState &m = messages_[instance];
    m.store_payload = store_payload;
}

ChunkReceiver::MessageState &
ChunkReceiver::state(std::uint64_t instance)
{
    return messages_[instance];
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
                        std::span<const std::uint8_t> chunk,
                        double chunk_len)
{
    if (crc32c(chunk) == hdr.payload_crc)
        return true;
    emit(TransportEvent::Kind::CorruptDrop, link, key, hdr.chunk_seq,
         chunk_len);
    return false;
}

void
ChunkReceiver::noteChunk(LinkId link, const MessageKey &key,
                         std::uint32_t seq, bool fresh, double chunk_len,
                         Decision &d)
{
    if (!fresh) {
        ++d.duplicates;
        emit(TransportEvent::Kind::Duplicate, link, key, seq);
        return;
    }
    ++d.fresh_accepts;
    emit(TransportEvent::Kind::Accept, link, key, seq, chunk_len);
}

void
ChunkReceiver::acceptOnce(MessageState &m, const FrameHeader &hdr,
                          std::span<const std::uint8_t> chunk,
                          double chunk_len, Decision &d)
{
    const bool fresh = m.accepted.insert(hdr.chunk_seq).second;
    noteChunk(m.link, m.key, hdr.chunk_seq, fresh, chunk_len, d);
    if (fresh && m.store_payload)
        m.chunks[hdr.chunk_seq].assign(chunk.begin(), chunk.end());
}

void
ChunkReceiver::flushHold(MessageState &m, Decision &d)
{
    m.hold_pending = false;
    acceptOnce(m, m.hold_hdr,
               {m.hold_bytes.data(), m.hold_bytes.size()},
               m.hold_chunk_len, d);
    if (m.hold_duplicated)
        acceptOnce(m, m.hold_hdr,
                   {m.hold_bytes.data(), m.hold_bytes.size()},
                   m.hold_chunk_len, d);
    m.hold_bytes.clear();
}

ChunkReceiver::Decision
ChunkReceiver::onChunk(std::uint64_t instance, LinkId link,
                       const MessageKey &key, const FrameHeader &hdr,
                       std::span<const std::uint8_t> chunk,
                       double chunk_len, bool duplicated_hint,
                       bool reordered_hint)
{
    MessageState &m = state(instance);
    m.link = link;
    m.key = key;
    m.chunk_count = hdr.chunk_count;

    Decision d;
    d.crc_ok = checkCrc(link, key, hdr, chunk, chunk_len);
    if (!d.crc_ok)
        return d;

    if (reordered_hint && !m.hold_pending &&
        hdr.chunk_seq + 1 < hdr.chunk_count) {
        // Delivery overtaken by the next send: hold the (intact)
        // chunk and apply it after its successor.
        m.hold_pending = true;
        m.hold_hdr = hdr;
        m.hold_duplicated = duplicated_hint;
        m.hold_chunk_len = chunk_len;
        m.hold_bytes.assign(chunk.begin(), chunk.end());
        d.held = true;
        emit(TransportEvent::Kind::ReorderHold, link, key, hdr.chunk_seq);
        return d;
    }

    acceptOnce(m, hdr, chunk, chunk_len, d);
    if (duplicated_hint)
        acceptOnce(m, hdr, chunk, chunk_len, d); // delivered twice.
    if (m.hold_pending)
        flushHold(m, d);

    if (!m.complete && m.accepted.size() == m.chunk_count) {
        m.complete = true;
        ++delivered_;
        if (m.store_payload) {
            m.assembled.clear();
            for (const auto &[seq, bytes] : m.chunks)
                m.assembled.insert(m.assembled.end(), bytes.begin(),
                                   bytes.end());
            m.chunks.clear();
        }
        emit(TransportEvent::Kind::Deliver, link, key, m.chunk_count);
    }
    d.message_complete = m.complete;
    return d;
}

void
ChunkReceiver::abandon(std::uint64_t instance)
{
    auto it = messages_.find(instance);
    if (it == messages_.end() || !it->second.hold_pending)
        return;
    Decision d;
    flushHold(it->second, d); // whatever arrived, arrived.
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
    ROG_ASSERT(it != messages_.end() && it->second.complete &&
                   !it->second.hold_pending,
               "retire of an undelivered message");
    Retired r;
    r.payload = std::move(it->second.assembled);
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
                              double chunk_len, bool fresh)
{
    Decision d;
    d.crc_ok = checkCrc(link, key, hdr, chunk, chunk_len);
    if (!d.crc_ok)
        return d;
    noteChunk(link, key, hdr.chunk_seq, fresh, chunk_len, d);
    d.message_complete = true;
    return d;
}

FrameAssembler::FrameAssembler(ChunkReceiver &rx, bool store_payload)
    : rx_(rx), store_payload_(store_payload)
{
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
    const auto chunk_len = static_cast<double>(chunk.size());
    if (const std::uint32_t *prefix = delivered_.find(key)) {
        const auto extra = std::make_pair(key, hdr.chunk_seq);
        const bool fresh = hdr.chunk_seq >= *prefix &&
                           delivered_extra_.count(extra) == 0;
        r.decision =
            rx_.onRetiredChunk(link, key, hdr, chunk, chunk_len, fresh);
        if (r.decision.fresh_accepts > 0)
            delivered_extra_.insert(extra);
        return;
    }

    auto [it, fresh] = instances_.try_emplace(key, next_instance_);
    if (fresh) {
        ++next_instance_;
        rx_.open(it->second, store_payload_);
    }
    r.decision = rx_.onChunk(it->second, link, key, hdr, chunk, chunk_len,
                             false, false);
    if (!r.decision.message_complete)
        return;

    // Delivered: keep only what dedup of late frames needs.
    ChunkReceiver::Retired done = rx_.retire(it->second);
    instances_.erase(it);
    delivered_.insert(key, done.accepted_prefix);
    for (const std::uint32_t seq : done.accepted_extra)
        delivered_extra_.insert({key, seq});
    r.delivered = true;
    r.payload = std::move(done.payload);
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
