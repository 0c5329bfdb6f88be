/**
 * @file
 * Cross-validation equivalence: a recorded real-socket run replays
 * byte-identically through the DES twin. The traces here are golden
 * files checked in from actual UDP loopback runs (generated with
 * `rog_transportd loopback --check`), so this test runs on restricted
 * CI with no socket access at all — and tampering tests prove the
 * comparison actually bites.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "net/transport/crossval.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

std::string
readFileOrDie(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is) << "missing golden file " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

struct Golden
{
    TransportTrace trace;
    std::vector<TransportEvent> events;
};

Golden
loadGolden(const std::string &stem)
{
    const std::string dir =
        std::string(ROG_TEST_DATA_DIR) + "/net/data/";
    const TraceParseResult trace =
        TransportTrace::tryParse(readFileOrDie(dir + stem + ".trace"));
    EXPECT_TRUE(trace.ok()) << trace.error;
    const LogParseResult log =
        tryParseLog(readFileOrDie(dir + stem + ".events"));
    EXPECT_TRUE(log.ok()) << log.error;
    return {trace.trace, log.events};
}

TEST(TransportCrossval, GoldenUdpFaultyRunReplaysIdentically)
{
    const Golden g = loadGolden("crossval_udp_faulty");
    // The golden run went through drop, dup, truncation, corruption
    // and delay — retries, resumes, CRC discards and dedups all on
    // the wire.
    ASSERT_FALSE(g.trace.attempts.empty());
    ASSERT_FALSE(g.trace.rx.empty());
    const CrossvalReport report = crossValidate(g.trace, g.events);
    EXPECT_TRUE(report.ok) << report.detail;
    EXPECT_GT(report.sender_events, 0u);
    EXPECT_GT(report.receiver_events, 0u);
}

TEST(TransportCrossval, TamperedEventLogIsDetected)
{
    Golden g = loadGolden("crossval_udp_faulty");
    // Claim one accepted chunk was a different sequence number.
    for (TransportEvent &ev : g.events) {
        if (ev.kind == TransportEvent::Kind::Accept) {
            ev.chunk_seq += 1;
            break;
        }
    }
    const CrossvalReport report = crossValidate(g.trace, g.events);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.detail.find("diverges"), std::string::npos)
        << report.detail;
}

TEST(TransportCrossval, TamperedTraceOutcomeIsDetected)
{
    Golden g = loadGolden("crossval_udp_faulty");
    // Rewrite the final (message-completing) attempt as a timeout: the
    // replayed sender retries past the end of the trace where the
    // recorded one finished.
    ASSERT_FALSE(g.trace.attempts.empty());
    AttemptRecord &last = g.trace.attempts.back();
    ASSERT_TRUE(last.message_complete);
    last.outcome = AttemptOutcome::Timeout;
    last.bytes_sent = 0.0;
    last.message_complete = false;
    const CrossvalReport report = crossValidate(g.trace, g.events);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.detail.find("replay"), std::string::npos)
        << report.detail;
}

TEST(TransportCrossval, TruncatedAttemptTraceReportsDivergence)
{
    Golden g = loadGolden("crossval_udp_faulty");
    ASSERT_GT(g.trace.attempts.size(), 2u);
    g.trace.attempts.resize(g.trace.attempts.size() / 2);
    const ReplayResult replay = replaySenderTrace(g.trace);
    EXPECT_FALSE(replay.divergence.empty());
}

TEST(TransportCrossval, RxRecordForUnknownMessageReportsDivergence)
{
    Golden g = loadGolden("crossval_udp_faulty");
    ASSERT_FALSE(g.trace.rx.empty());
    RxRecord stray = g.trace.rx.front();
    stray.key.worker = 99; // never sent.
    g.trace.rx.push_back(stray);
    const ReplayResult replay = replayReceiverTrace(g.trace);
    EXPECT_FALSE(replay.divergence.empty());
}

TEST(TransportCrossval, GoldenTraceTextRoundTrips)
{
    const std::string dir =
        std::string(ROG_TEST_DATA_DIR) + "/net/data/";
    const std::string text =
        readFileOrDie(dir + "crossval_udp_faulty.trace");
    const TraceParseResult first = TransportTrace::tryParse(text);
    ASSERT_TRUE(first.ok()) << first.error;
    const std::string rendered = first.trace.toText();
    const TraceParseResult second = TransportTrace::tryParse(rendered);
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_EQ(rendered, second.trace.toText());
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
