/**
 * @file
 * Differential fuzz of the receive path: the production FrameReceiver,
 * which retires each message the moment it is delivered, against the
 * pre-retirement pair kept as a test oracle (legacy_receiver.hpp),
 * which keeps every message's full state forever.
 *
 * A seeded generator frames messages of 1-4 chunks and mangles the
 * frame stream: truncated fragments, CRC corruption, duplicated
 * datagrams, gap fragments past the received prefix, reordering across
 * messages, chunk_seq >= chunk_count, and late retransmits of messages
 * delivered long ago (whole, truncated or corrupted). Both sides see
 * the same frames; every ACK and every TransportEvent must match. The one intended difference is delivery: the
 * oracle reports its retained payload again on every late frame of a
 * completed message, production hands each payload up exactly once.
 *
 * After 10 000 delivered messages production must hold no message
 * state and no chunk buffer; the bytes it keeps per delivered key are
 * reported.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "net/legacy_receiver.hpp"
#include "net/transport/receiver.hpp"
#include "net/transport/socket_backend.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

constexpr std::size_t kMessages = 10000;
constexpr std::size_t kWindow = 6; //!< messages in flight at once.

struct Message
{
    MessageKey key;
    std::vector<std::vector<std::uint8_t>> chunks;
};

struct Frame
{
    FrameHeader hdr;
    std::vector<std::uint8_t> present;
};

/** Chunk @p seq of @p m; past chunk_count a sender bug frames a
 *  short chunk of its own. */
std::vector<std::uint8_t>
chunkOf(const Message &m, std::uint32_t seq)
{
    if (seq < m.chunks.size())
        return m.chunks[seq];
    return std::vector<std::uint8_t>(seq % 7, static_cast<std::uint8_t>(seq));
}

/** Frame chunk @p seq of @p m from byte @p off to the chunk's end, of
 *  which only @p keep bytes arrive; @p corrupt flips one of them. */
Frame
frameOf(const Message &m, std::uint32_t seq, std::size_t off,
        std::size_t keep, bool corrupt)
{
    const std::vector<std::uint8_t> chunk = chunkOf(m, seq);
    Frame f;
    f.hdr.flags = m.key.pull ? kFlagPull : 0;
    f.hdr.worker = m.key.worker;
    f.hdr.version = m.key.version;
    f.hdr.row = m.key.row;
    f.hdr.chunk_seq = seq;
    f.hdr.chunk_count = static_cast<std::uint32_t>(m.chunks.size());
    f.hdr.payload_off = off;
    f.hdr.payload_len = static_cast<std::uint32_t>(chunk.size() - off);
    f.hdr.payload_crc = crc32c({chunk.data(), chunk.size()});
    f.present.assign(chunk.begin() + static_cast<std::ptrdiff_t>(off),
                     chunk.begin() + static_cast<std::ptrdiff_t>(off + keep));
    if (corrupt && !f.present.empty())
        f.present[keep / 2] ^= 0x40;
    return f;
}

/** One attempt at chunk @p seq, possibly mangled on the wire. */
void
attempt(Rng &rng, const Message &m, std::uint32_t seq,
        std::vector<Frame> &out)
{
    const std::size_t size = chunkOf(m, seq).size();
    const double u = rng.uniform();
    if (u < 0.15 && size > 0) { // truncated mid-fragment.
        const std::size_t off = rng.uniformInt(size);
        out.push_back(frameOf(m, seq, off, rng.uniformInt(size - off),
                              false));
    } else if (u < 0.25 && size > 1) { // a gap: resumes past the prefix.
        const std::size_t off = 1 + rng.uniformInt(size - 1);
        out.push_back(frameOf(m, seq, off, size - off, false));
    } else if (u < 0.35) { // corrupted in flight.
        out.push_back(frameOf(m, seq, 0, size, true));
    } else if (u < 0.45) { // delivered twice.
        out.push_back(frameOf(m, seq, 0, size, false));
        out.push_back(out.back());
    } else {
        out.push_back(frameOf(m, seq, 0, size, false));
    }
}

/** ACK bytes exactly as an endpoint would send them. */
std::vector<std::uint8_t>
ackBytes(const FrameHeader &data, const FrameReceiver::Result &r)
{
    std::vector<std::uint8_t> out(FrameHeader::kWireSize);
    makeAck(data, r).serialize({out.data(), out.size()});
    return out;
}

FrameReceiver::Result
asProduction(const legacy::FrameAssembler::Result &l)
{
    FrameReceiver::Result r;
    r.chunk_complete = l.chunk_complete;
    r.prefix = l.prefix;
    r.crc_ok = l.decision.crc_ok;
    r.fresh_accepts = l.decision.fresh_accepts;
    r.duplicates = l.decision.duplicates;
    r.message_complete = l.decision.message_complete;
    return r;
}

struct DiffParam
{
    std::uint64_t seed;
    bool store_payload;
};

void
PrintTo(const DiffParam &p, std::ostream *os)
{
    *os << "seed " << p.seed
        << (p.store_payload ? " with payloads" : " decisions only");
}

class ReceiverDiff : public ::testing::TestWithParam<DiffParam>
{
};

TEST_P(ReceiverDiff, SameAcksAndEventsWithStateBoundedByMessagesInFlight)
{
    const DiffParam param = GetParam();
    Rng rng(param.seed);
    double now = 0.0;
    const auto clock = [&now] { return now; };

    std::vector<TransportEvent> old_events, new_events;
    legacy::ChunkReceiver old_rx(
        clock, [&](const TransportEvent &ev) { old_events.push_back(ev); });
    legacy::FrameAssembler old_asm(old_rx, param.store_payload);
    // Production keeps payloads exactly when a DeliverySink is attached.
    std::vector<std::vector<std::uint8_t>> handed_up;
    DeliverySink sink;
    if (param.store_payload)
        sink = [&handed_up](const MessageKey &,
                            std::vector<std::uint8_t> &&p) {
            handed_up.push_back(std::move(p));
        };
    FrameReceiver new_rx(
        clock, [&](const TransportEvent &ev) { new_events.push_back(ev); },
        std::move(sink));

    std::size_t frames = 0, late_frames = 0, old_redeliveries = 0;
    std::size_t new_deliveries = 0, events_checked = 0;
    std::vector<Message> sent;

    const auto feed = [&](const Frame &f) {
        ++frames;
        now += 1e-3;
        const std::size_t old_delivered = old_rx.deliveredMessages();
        const std::size_t handed_before = handed_up.size();
        const auto o = old_asm.onFrame(0, f.hdr, f.present);
        const auto n = new_rx.onFrame(0, f.hdr, f.present);
        ASSERT_EQ(ackBytes(f.hdr, asProduction(o)), ackBytes(f.hdr, n))
            << "ACK diverged at frame " << frames;

        const bool first = old_rx.deliveredMessages() > old_delivered;
        ASSERT_EQ(n.delivered, first) << "frame " << frames;
        ASSERT_EQ(handed_up.size(),
                  handed_before + (n.delivered && param.store_payload))
            << "frame " << frames;
        if (n.delivered) {
            ++new_deliveries;
            if (param.store_payload) {
                ASSERT_NE(o.decision.assembled, nullptr);
                ASSERT_EQ(handed_up.back(), *o.decision.assembled);
            }
        } else if (o.chunk_complete && o.decision.message_complete &&
                   o.decision.assembled) {
            ++old_redeliveries; // what the old endpoint handed up again.
        }

        ASSERT_EQ(new_events.size(), old_events.size())
            << "event count diverged at frame " << frames;
        for (; events_checked < new_events.size(); ++events_checked)
            ASSERT_EQ(toString(new_events[events_checked]),
                      toString(old_events[events_checked]));
    };

    while (sent.size() < kMessages) {
        std::vector<Frame> wire;
        std::set<std::pair<std::size_t, std::uint32_t>> touched;
        const std::size_t first_msg = sent.size();
        for (std::size_t i = 0; i < kWindow && sent.size() < kMessages;
             ++i) {
            Message m;
            m.key.worker = static_cast<std::uint16_t>(rng.uniformInt(4));
            m.key.version = static_cast<std::int64_t>(sent.size());
            m.key.row = static_cast<std::uint32_t>(rng.uniformInt(22));
            m.key.pull = rng.uniform() < 0.2;
            m.chunks.resize(1 + rng.uniformInt(4));
            for (auto &c : m.chunks) {
                c.resize(rng.uniform() < 0.05 ? 0 : 1 + rng.uniformInt(96));
                for (auto &b : c)
                    b = static_cast<std::uint8_t>(rng.next());
            }
            sent.push_back(m);
            const std::size_t id = sent.size() - 1;
            for (std::uint32_t seq = 0; seq < m.chunks.size(); ++seq) {
                const std::size_t tries = 1 + rng.uniformInt(3);
                for (std::size_t t = 0; t < tries; ++t)
                    attempt(rng, m, seq, wire);
                touched.insert({id, seq});
            }
            if (rng.uniform() < 0.03) { // chunk_seq past chunk_count.
                const auto seq = static_cast<std::uint32_t>(
                    m.chunks.size() + rng.uniformInt(3));
                attempt(rng, m, seq, wire);
                touched.insert({id, seq});
            }
        }
        // Late retransmits of messages delivered windows ago.
        for (std::size_t i = 0; first_msg > 0 && i < 2; ++i) {
            if (rng.uniform() < 0.5)
                continue;
            const std::size_t id = rng.uniformInt(first_msg);
            const auto seq = static_cast<std::uint32_t>(
                rng.uniformInt(sent[id].chunks.size()));
            const std::size_t before = wire.size();
            attempt(rng, sent[id], seq, wire);
            late_frames += wire.size() - before;
            touched.insert({id, seq});
        }
        // Reorder across the window, then let every touched chunk
        // finally arrive whole so each message completes and no
        // partial chunk is left buffered.
        for (std::size_t i = wire.size(); i > 1; --i)
            std::swap(wire[i - 1], wire[rng.uniformInt(i)]);
        for (const Frame &f : wire)
            feed(f);
        for (const auto &[id, seq] : touched) {
            const std::size_t size = chunkOf(sent[id], seq).size();
            feed(frameOf(sent[id], seq, 0, size, false));
        }
        if (HasFatalFailure())
            return;
    }

    EXPECT_EQ(new_rx.deliveredMessages(), kMessages);
    EXPECT_EQ(old_rx.deliveredMessages(), kMessages);
    EXPECT_EQ(new_deliveries, kMessages);
    EXPECT_EQ(new_rx.deliveredKeys(), kMessages);
    EXPECT_GT(late_frames, 0u);
    if (param.store_payload) {
        EXPECT_GT(old_redeliveries, 0u); // the oracle's double hand-up.
    }

    // State proportional to messages in flight: none are left.
    EXPECT_EQ(new_rx.liveMessages(), 0u);
    EXPECT_EQ(new_rx.chunkBuffers(), 0u);
    EXPECT_EQ(old_rx.messageStates(), kMessages); // kept forever.
    EXPECT_EQ(old_asm.chunkBuffers(), 0u);

    const double per_key =
        static_cast<double>(new_rx.deliveredBytes()) / kMessages;
    std::cout << "[ receiver ] " << frames << " frames (" << late_frames
              << " late), " << kMessages << " delivered; retained "
              << new_rx.deliveredBytes() << " B = " << per_key
              << " B per delivered key\n";
    RecordProperty("retained_bytes_per_key", static_cast<int>(per_key));
    EXPECT_LE(per_key, 64.0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ReceiverDiff,
    ::testing::Values(DiffParam{1, true}, DiffParam{2, true},
                      DiffParam{3, false}),
    [](const ::testing::TestParamInfo<DiffParam> &info) {
        return "seed" + std::to_string(info.param.seed) +
               (info.param.store_payload ? "_payload" : "_decisions");
    });

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
