/**
 * @file
 * Parser coverage for the transport event log and wire trace, in the
 * style of FaultPlan::tryParse's per-rejection-path tests: every
 * malformed shape (truncated lines, corrupt fields, wrong counts,
 * out-of-range values) must be rejected with a diagnostic naming the
 * problem — never skipped, never accepted — and every well-formed
 * value must round-trip bit-exactly through render + parse, including
 * logs interleaving many links.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/transport/event_log.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

TransportEvent
sampleEvent()
{
    TransportEvent ev;
    ev.t = 1.25;
    ev.kind = TransportEvent::Kind::Attempt;
    ev.link = 2;
    ev.key.worker = 3;
    ev.key.version = -7; // versions may be negative.
    ev.key.row = 11;
    ev.key.pull = true;
    ev.chunk_seq = 4;
    ev.a = 16432.0;
    ev.b = 123.456;
    return ev;
}

// ------------------------------------------------------ event lines

TEST(EventLogParse, SampleLineRoundTrips)
{
    const TransportEvent ev = sampleEvent();
    const auto parsed = tryParseEvent(toString(ev));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(parsed.event == ev);
}

TEST(EventLogParse, EveryKindRoundTrips)
{
    using K = TransportEvent::Kind;
    for (K kind : {K::Attempt, K::Resume, K::Backoff, K::Accept,
                   K::Duplicate, K::CorruptDrop, K::Deliver, K::Fail}) {
        TransportEvent ev = sampleEvent();
        ev.kind = kind;
        const auto parsed = tryParseEvent(toString(ev));
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        EXPECT_TRUE(parsed.event == ev);
    }
}

struct RejectCase
{
    const char *line;
    const char *why; //!< substring the diagnostic must contain.
};

TEST(EventLogParse, EveryRejectionPathNamesTheProblem)
{
    const RejectCase cases[] = {
        {"", "10 fields, got 0"},
        {"t=1 attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=1",
         "10 fields, got 9"},
        {"t=1 attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=2 c=3",
         "10 fields, got 11"},
        {"x=1 attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=2",
         "expected 't=...'"},
        {"t= attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=2",
         "empty value for 't'"},
        {"t=zig attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=2",
         "bad number for 't'"},
        {"t=1 explode link=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=2",
         "unknown event kind 'explode'"},
        {"t=1 attempt link=-1 w=1 v=2 row=3 dir=push seq=0 a=1 b=2",
         "bad integer for 'link'"},
        {"t=1 attempt wire=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=2",
         "expected 'link=...'"},
        {"t=1 attempt link=0 w=70000 v=2 row=3 dir=push seq=0 a=1 b=2",
         "worker out of range"},
        {"t=1 attempt link=0 w=1 v=two row=3 dir=push seq=0 a=1 b=2",
         "bad integer for 'v'"},
        {"t=1 attempt link=0 w=1 v=2 row=4294967296 dir=push seq=0 "
         "a=1 b=2",
         "row out of range"},
        {"t=1 attempt link=0 w=1 v=2 row=3 dir=sideways seq=0 a=1 b=2",
         "bad direction 'sideways'"},
        {"t=1 attempt link=0 w=1 v=2 row=3 dir=push seq=x a=1 b=2",
         "bad integer for 'seq'"},
        {"t=1 attempt link=0 w=1 v=2 row=3 dir=push seq=4294967296 "
         "a=1 b=2",
         "seq out of range"},
        {"t=1 attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=nope b=2",
         "bad number for 'a'"},
        {"t=1 attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=",
         "empty value for 'b'"},
        {"t=nan attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=2",
         "bad number for 't'"},
        {"t=1 attempt link=0 w=1 v=2 row=3 dir=push seq=0 a=nan b=2",
         "bad number for 'a'"},
        {"t=1 reorder-hold link=0 w=1 v=2 row=3 dir=push seq=0 a=0 b=0",
         "unknown event kind 'reorder-hold'"},
    };
    for (const RejectCase &c : cases) {
        const auto parsed = tryParseEvent(c.line);
        EXPECT_FALSE(parsed.ok()) << "accepted: " << c.line;
        EXPECT_NE(parsed.error.find(c.why), std::string::npos)
            << "line: " << c.line << "\n  error: " << parsed.error
            << "\n  expected substring: " << c.why;
    }
}

TEST(EventLogParse, FuzzedEventsRoundTripExactly)
{
    Rng rng(0xE7EA71u);
    for (int i = 0; i < 2000; ++i) {
        TransportEvent ev;
        ev.t = rng.uniform(-10.0, 1e6);
        ev.kind = static_cast<TransportEvent::Kind>(rng.uniformInt(8));
        ev.link = static_cast<LinkId>(rng.uniformInt(64));
        ev.key.worker =
            static_cast<std::uint16_t>(rng.uniformInt(65536));
        ev.key.version =
            static_cast<std::int64_t>(rng.uniformInt(2000001)) -
            1000000;
        ev.key.row =
            static_cast<std::uint32_t>(rng.uniformInt(1u << 30));
        ev.key.pull = rng.uniform() < 0.5;
        ev.chunk_seq =
            static_cast<std::uint32_t>(rng.uniformInt(1u << 20));
        ev.a = rng.uniform(0.0, 1e9);
        ev.b = rng.uniform(-1e9, 1e9);
        const auto parsed = tryParseEvent(toString(ev));
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        ASSERT_TRUE(parsed.event == ev) << toString(ev);
    }
}

// ------------------------------------------------------- whole logs

TEST(EventLogParse, LogSkipsCommentsAndCountsLines)
{
    const std::string text =
        "# a comment\n"
        "\n" +
        toString(sampleEvent()) + "\n" +
        "t=1 bogus link=0 w=1 v=2 row=3 dir=push seq=0 a=1 b=2\n";
    const auto parsed = tryParseLog(text);
    EXPECT_FALSE(parsed.ok());
    // The diagnostic names the *file* line, comments included.
    EXPECT_NE(parsed.error.find("line 4"), std::string::npos)
        << parsed.error;
    EXPECT_TRUE(parsed.events.empty()); // no partial results.
}

TEST(EventLogParse, InterleavedLinksRoundTripInOrder)
{
    Rng rng(0x11E4C5u);
    std::vector<TransportEvent> log;
    for (int i = 0; i < 200; ++i) {
        TransportEvent ev = sampleEvent();
        ev.t = 0.01 * i;
        ev.link = static_cast<LinkId>(rng.uniformInt(8));
        ev.key.worker = static_cast<std::uint16_t>(ev.link);
        ev.kind = static_cast<TransportEvent::Kind>(rng.uniformInt(8));
        ev.chunk_seq = static_cast<std::uint32_t>(i);
        log.push_back(ev);
    }
    std::string text;
    for (const TransportEvent &ev : log)
        text += toString(ev) + "\n";
    const auto parsed = tryParseLog(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_EQ(parsed.events.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_TRUE(parsed.events[i] == log[i]) << i;
    // Normalization only zeroes t; order and payload are preserved.
    const std::string norm = renderNormalized(parsed.events);
    const auto reparsed = tryParseLog(norm);
    ASSERT_TRUE(reparsed.ok());
    ASSERT_EQ(reparsed.events.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_DOUBLE_EQ(reparsed.events[i].t, 0.0);
        EXPECT_EQ(reparsed.events[i].chunk_seq, log[i].chunk_seq);
    }
}

TEST(EventLogParse, FilterSideSplitsSenderFromReceiver)
{
    using K = TransportEvent::Kind;
    std::vector<TransportEvent> log;
    for (K kind : {K::Attempt, K::Accept, K::Backoff, K::Deliver,
                   K::Fail, K::Duplicate}) {
        TransportEvent ev = sampleEvent();
        ev.kind = kind;
        log.push_back(ev);
    }
    const auto sender = filterSide(log, EventSide::Sender);
    const auto receiver = filterSide(log, EventSide::Receiver);
    EXPECT_EQ(sender.size(), 3u);   // attempt, backoff, fail.
    EXPECT_EQ(receiver.size(), 3u); // accept, deliver, duplicate.
    EXPECT_EQ(sender.size() + receiver.size(), log.size());
}

// ------------------------------------------------------ wire traces

std::string
validTraceHeader()
{
    return "trace v1 backend=udp chunk=16384 attempts=8 base=0.05 "
           "max=2 jitter=0.25 jseed=7 resume=1\n";
}

TEST(TraceParse, MinimalTraceRoundTrips)
{
    const std::string text =
        validTraceHeader() +
        "send link=0 w=1 v=0 row=100 dir=push bytes=40000 "
        "deadline=inf\n"
        "att link=0 w=1 v=0 row=100 dir=push seq=0 off=0 out=accept "
        "bytes=16432 elapsed=0.001 complete=0\n"
        "rx link=0 w=1 v=0 row=100 dir=push seq=0 off=0 len=16384 "
        "got=16384 crc=ok\n";
    const TraceParseResult first = TransportTrace::tryParse(text);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_EQ(first.trace.sends.size(), 1u);
    EXPECT_EQ(first.trace.attempts.size(), 1u);
    EXPECT_EQ(first.trace.rx.size(), 1u);
    EXPECT_TRUE(std::isinf(first.trace.sends[0].deadline_s));
    const TraceParseResult second =
        TransportTrace::tryParse(first.trace.toText());
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_EQ(first.trace.toText(), second.trace.toText());
}

TEST(TraceParse, EveryRejectionPathNamesTheProblem)
{
    const std::string hdr = validTraceHeader();
    const RejectCase cases[] = {
        {"", "missing trace header"},
        {"send link=0 w=1 v=0 row=1 dir=push bytes=1 deadline=inf\n",
         "send before trace header"},
        {"att link=0 w=1 v=0 row=1 dir=push seq=0 off=0 out=accept "
         "bytes=1 elapsed=0 complete=0\n",
         "att before trace header"},
        {"rx link=0 w=1 v=0 row=1 dir=push seq=0 off=0 len=1 got=1 "
         "crc=ok\n",
         "rx before trace header"},
        {"trace v1 backend=udp chunk=16384\n", "10 fields, got 4"},
        {"trace v2 backend=udp chunk=16384 attempts=8 base=0.05 max=2 "
         "jitter=0.25 jseed=7 resume=1\n",
         "unsupported trace version 'v2'"},
        {"trace v1 backend=udp chunk=0 attempts=8 base=0.05 max=2 "
         "jitter=0.25 jseed=7 resume=1\n",
         "chunk must be in [1, 1048576]"},
        {"trace v1 backend=udp chunk=1048577 attempts=8 base=0.05 max=2 "
         "jitter=0.25 jseed=7 resume=1\n",
         "chunk must be in [1, 1048576]"},
        {"trace v1 backend=udp chunk=16384 attempts=8 base=0.05 max=2 "
         "jitter=1.5 jseed=7 resume=1\n",
         "jitter must be in [0, 1)"},
        {"trace v1 backend=udp chunk=16384 attempts=8 base=0.05 max=2 "
         "jitter=0.25 jseed=7 resume=2\n",
         "resume must be 0 or 1"},
    };
    for (const RejectCase &c : cases) {
        const TraceParseResult parsed = TransportTrace::tryParse(c.line);
        EXPECT_FALSE(parsed.ok()) << "accepted: " << c.line;
        EXPECT_NE(parsed.error.find(c.why), std::string::npos)
            << "input: " << c.line << "\n  error: " << parsed.error
            << "\n  expected substring: " << c.why;
    }

    const RejectCase body_cases[] = {
        {"", ""}, // sanity: a bare header parses.
        {"wat link=0\n", "unknown record type 'wat'"},
        {"trace v1 backend=udp chunk=16384 attempts=8 base=0.05 max=2 "
         "jitter=0.25 jseed=7 resume=1\n",
         "duplicate trace header"},
        {"send link=0 w=1 v=0 row=1 dir=push bytes=1\n",
         "send record needs 8 fields"},
        {"send link=0 w=1 v=0 row=1 dir=push bytes=-4 deadline=inf\n",
         "bad integer for 'bytes'"},
        {"send link=0 w=1 v=0 row=1 dir=push bytes=1.5 deadline=inf\n",
         "bad integer for 'bytes'"},
        {"att link=0 w=1 v=0 row=1 dir=push seq=0 off=0 out=accept "
         "bytes=1 elapsed=0\n",
         "att record needs 12 fields"},
        {"att link=0 w=1 v=0 row=1 dir=push seq=0 off=0 out=vanished "
         "bytes=1 elapsed=0 complete=0\n",
         "unknown attempt outcome 'vanished'"},
        {"att link=0 w=1 v=0 row=1 dir=push seq=0 off=0 out=held "
         "bytes=1 elapsed=0 complete=0\n",
         "unknown attempt outcome 'held'"},
        {"att link=0 w=1 v=0 row=1 dir=push seq=0 off=0 out=accept "
         "bytes=1 elapsed=0 complete=3\n",
         "complete must be 0 or 1"},
        {"att link=0 w=1 v=0 row=1 dir=push seq=0 off=0 out=accept "
         "bytes=-1 elapsed=0 complete=0\n",
         "bad integer for 'bytes'"},
        {"att link=0 w=1 v=0 row=1 dir=push seq=0 off=0 out=accept "
         "bytes=1 elapsed=-1 complete=0\n",
         "att elapsed must be non-negative"},
        {"rx link=0 w=1 v=0 row=1 dir=push seq=0 off=0 len=1 got=1\n",
         "rx record needs 11 fields"},
        {"rx link=0 w=1 v=0 row=1 dir=push seq=0 off=0 len=1 got=2 "
         "crc=ok\n",
         "rx got exceeds fragment length"},
        {"rx link=0 w=1 v=0 row=1 dir=push seq=0 off=0 len=1 got=1 "
         "crc=maybe\n",
         "crc must be ok|bad"},
        {"att link=0 w=1 v=0 row=1 dir=pull seq=x off=0 out=accept "
         "bytes=1 elapsed=0 complete=0\n",
         "bad integer for 'seq'"},
        {"send link=0 w=1 v=0 row=1 dir=push bytes=nan deadline=inf\n",
         "bad integer for 'bytes'"},
        {"att link=0 w=1 v=0 row=1 dir=push seq=0 off=0 out=accept "
         "bytes=1 elapsed=nan complete=0\n",
         "bad number for 'elapsed'"},
    };
    for (const RejectCase &c : body_cases) {
        const std::string text = hdr + c.line;
        const TraceParseResult parsed = TransportTrace::tryParse(text);
        if (std::string(c.why).empty()) {
            EXPECT_TRUE(parsed.ok()) << parsed.error;
            continue;
        }
        EXPECT_FALSE(parsed.ok()) << "accepted: " << c.line;
        EXPECT_NE(parsed.error.find(c.why), std::string::npos)
            << "input: " << c.line << "\n  error: " << parsed.error
            << "\n  expected substring: " << c.why;
        // Rejection names the file line (header is line 1).
        EXPECT_NE(parsed.error.find("line "), std::string::npos);
    }
}

TEST(TraceParse, FuzzedTracesRoundTripExactly)
{
    Rng rng(0x7EACEu);
    for (int iter = 0; iter < 50; ++iter) {
        TransportTrace trace;
        trace.config.backend = (iter % 2) != 0 ? "udp" : "tcp";
        trace.config.chunk_bytes = 1 + rng.uniformInt(65536);
        trace.config.max_attempts =
            static_cast<std::size_t>(1 + rng.uniformInt(16));
        trace.config.jitter_frac = rng.uniform(0.0, 0.99);
        trace.config.jitter_seed = rng.uniformInt(1u << 30);
        const int sends = static_cast<int>(rng.uniformInt(6));
        for (int s = 0; s < sends; ++s) {
            SendRecord rec;
            rec.key.worker =
                static_cast<std::uint16_t>(rng.uniformInt(10));
            rec.key.version = s;
            rec.key.row =
                static_cast<std::uint32_t>(rng.uniformInt(1000));
            rec.key.pull = rng.uniform() < 0.5;
            rec.payload_bytes = rng.uniformInt(1000001);
            rec.deadline_s =
                rng.uniform() < 0.3
                    ? std::numeric_limits<double>::infinity()
                    : rng.uniform(0.1, 100.0);
            trace.sends.push_back(rec);

            AttemptRecord att;
            att.key = rec.key;
            att.chunk_seq =
                static_cast<std::uint32_t>(rng.uniformInt(8));
            att.payload_off = rng.uniformInt(1u << 20);
            att.outcome = static_cast<AttemptOutcome>(rng.uniformInt(5));
            att.bytes_sent = rng.uniformInt(70001);
            att.elapsed_s = rng.uniform(0.0, 2.0);
            att.message_complete = rng.uniform() < 0.5;
            trace.attempts.push_back(att);

            RxRecord rx;
            rx.key = rec.key;
            rx.chunk_seq = att.chunk_seq;
            rx.payload_off = att.payload_off;
            rx.frag_len =
                static_cast<std::uint32_t>(rng.uniformInt(65536));
            rx.got = static_cast<std::uint32_t>(
                rng.uniformInt(rx.frag_len + 1u));
            rx.crc_ok = rng.uniform() < 0.8;
            trace.rx.push_back(rx);
        }
        const std::string text = trace.toText();
        const TraceParseResult parsed = TransportTrace::tryParse(text);
        ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << text;
        EXPECT_EQ(parsed.trace.toText(), text);
    }
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
