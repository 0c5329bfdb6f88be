#include "net/legacy_receiver.hpp"

#include <algorithm>

#include "common/crc32c.hpp"

namespace rog {
namespace net {
namespace transport {
namespace legacy {

ChunkReceiver::ChunkReceiver(std::function<double()> clock, EventSink sink)
    : clock_(std::move(clock)), sink_(std::move(sink))
{
}

void
ChunkReceiver::open(std::uint64_t instance, bool store_payload)
{
    messages_[instance].store_payload = store_payload;
}

void
ChunkReceiver::emit(TransportEvent::Kind kind, const MessageState &m,
                    std::uint32_t seq, double a)
{
    if (!sink_)
        return;
    TransportEvent ev;
    ev.t = clock_();
    ev.kind = kind;
    ev.link = m.link;
    ev.key = m.key;
    ev.chunk_seq = seq;
    ev.a = a;
    sink_(ev);
}

void
ChunkReceiver::acceptOnce(MessageState &m, const FrameHeader &hdr,
                          std::span<const std::uint8_t> chunk,
                          double chunk_len, Decision &d)
{
    const bool fresh = m.accepted.insert(hdr.chunk_seq).second;
    if (!fresh) {
        ++d.duplicates;
        emit(TransportEvent::Kind::Duplicate, m, hdr.chunk_seq);
        return;
    }
    ++d.fresh_accepts;
    emit(TransportEvent::Kind::Accept, m, hdr.chunk_seq, chunk_len);
    if (m.store_payload)
        m.chunks[hdr.chunk_seq].assign(chunk.begin(), chunk.end());
}

ChunkReceiver::Decision
ChunkReceiver::onChunk(std::uint64_t instance, LinkId link,
                       const MessageKey &key, const FrameHeader &hdr,
                       std::span<const std::uint8_t> chunk,
                       double chunk_len)
{
    MessageState &m = messages_[instance];
    m.link = link;
    m.key = key;
    m.chunk_count = hdr.chunk_count;

    Decision d;
    d.crc_ok = crc32c(chunk) == hdr.payload_crc;
    if (!d.crc_ok) {
        emit(TransportEvent::Kind::CorruptDrop, m, hdr.chunk_seq,
             chunk_len);
        return d;
    }

    acceptOnce(m, hdr, chunk, chunk_len, d);

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
        emit(TransportEvent::Kind::Deliver, m, m.chunk_count);
    }
    d.message_complete = m.complete;
    if (m.complete && m.store_payload)
        d.assembled = &m.assembled;
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

    auto [ins_it, fresh] = instances_.try_emplace(key, next_instance_);
    if (fresh) {
        ++next_instance_;
        rx_.open(ins_it->second, store_payload_);
    }
    const std::uint64_t instance = ins_it->second;

    ChunkBuf &buf = bufs_[{instance, hdr.chunk_seq}];
    const std::uint64_t off = hdr.payload_off;
    const std::uint64_t end = off + present.size();
    if (buf.bytes.size() < end)
        buf.bytes.resize(static_cast<std::size_t>(end), 0);
    std::copy(present.begin(), present.end(),
              buf.bytes.begin() + static_cast<std::size_t>(off));
    if (off <= buf.prefix)
        buf.prefix = std::max(buf.prefix, end);

    Result r;
    r.prefix = buf.prefix;

    const std::uint64_t chunk_total = off + hdr.payload_len;
    const bool whole = present.size() == hdr.payload_len;
    if (!whole || buf.prefix < chunk_total)
        return r;

    r.chunk_complete = true;
    r.decision = rx_.onChunk(
        instance, link, key, hdr,
        {buf.bytes.data(), static_cast<std::size_t>(chunk_total)},
        static_cast<double>(chunk_total));
    bufs_.erase({instance, hdr.chunk_seq});
    return r;
}

} // namespace legacy
} // namespace transport
} // namespace net
} // namespace rog
