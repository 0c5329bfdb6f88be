/**
 * @file
 * The record writers against their iostream oracles
 * (tests/common/legacy_render.*): seeded random node events of every
 * kind, transport events and wire traces go through both the
 * production writers (core::appendLine / toLine,
 * net::transport::toString, TransportTrace::toText) and the old
 * std::ostringstream writers, and the bytes must be equal. The doubles
 * include both zeros, both infinities, NaN of both signs, subnormals,
 * values up to DBL_MAX, rounding ties such as 999999.5 and the `%g`
 * switch points (1e-05 against 0.0001, 999999 against 1e+06).
 *
 * A second group pins appendNumber itself: its spelling of those
 * values, the round trip through parseNumber for every finite value,
 * and integers at their limits.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/legacy_render.hpp"
#include "common/text_line.hpp"
#include "core/node_event.hpp"
#include "net/transport/event_log.hpp"

namespace rog {
namespace {

using core::NodeEvent;
using net::transport::TransportEvent;
using net::transport::TransportTrace;
using Lim = std::numeric_limits<double>;

const std::vector<double> kSpecials = {
    0.0, -0.0, Lim::infinity(), -Lim::infinity(), Lim::quiet_NaN(),
    -Lim::quiet_NaN(), Lim::denorm_min(), -Lim::denorm_min(), 1e-310,
    -2.5e-315, Lim::min(), -Lim::min(), Lim::max(), -Lim::max(), 1.7e308,
    // %g switches to an exponent below 1e-04 and at 10^precision.
    1e-05, 0.0001, 9.99999e-05, 9.999995e-05, 0.00010000049999,
    999999, 1e+06, 999999.5, 999998.5, 999999.4999999, 9999995,
    99999950000000000.0, 1e16, 1e17, 9007199254740993.0,
    0.1, 0.5, 1.0 / 3.0, 2.0 / 3.0, 123456789.0, -123456.5, 0.00570083,
    1.25e-7, 4.35, 2.675, 1e+100, 1e-100, 5e-324, 2.2250738585072009e-308,
};

/** A double from one of several shapes, specials included. */
double
randomDouble(std::mt19937_64 &rng)
{
    switch (rng() % 6) {
    case 0:
        return kSpecials[rng() % kSpecials.size()];
    case 1: // any bit pattern: every exponent, NaN payloads, subnormals.
        return std::bit_cast<double>(rng());
    case 2: // run-log times: seconds on a node clock.
        return std::uniform_real_distribution<double>(0.0, 100.0)(rng);
    case 3: // exact halves: rounding ties at six digits.
        return static_cast<double>(rng() % 4000000) / 2.0 - 1000000.0;
    case 4: { // short decimals scaled over the whole range.
        const int exp = static_cast<int>(rng() % 620) - 310;
        return static_cast<double>(rng() % 10000000) *
               std::pow(10.0, exp);
    }
    default: { // a neighbour of a special value.
        const double v = kSpecials[rng() % kSpecials.size()];
        return std::nextafter(v, (rng() & 1) != 0 ? Lim::infinity()
                                                  : -Lim::infinity());
    }
    }
}

/** An integer of type T: small, at a limit, or any value. */
template <typename T>
T
randomInt(std::mt19937_64 &rng)
{
    switch (rng() % 4) {
    case 0:
        return static_cast<T>(rng() % 100);
    case 1:
        return (rng() & 1) != 0 ? std::numeric_limits<T>::max()
                                : std::numeric_limits<T>::min();
    default:
        return static_cast<T>(rng());
    }
}

NodeEvent
randomNodeEvent(std::mt19937_64 &rng, std::size_t i)
{
    static const char *const kWhy[] = {
        "", "heartbeat_failed", "fatal: no such file @ x.cpp:3",
        "push_failed", "a b  c"};
    NodeEvent ev;
    constexpr std::size_t kKinds = static_cast<std::size_t>(
                                       NodeEvent::Kind::DesServerKilled) +
                                   1;
    ev.kind = static_cast<NodeEvent::Kind>(i % kKinds);
    ev.t = randomDouble(rng);
    ev.w = randomInt<std::size_t>(rng);
    ev.iter = randomInt<std::int64_t>(rng);
    for (std::size_t n = rng() % 5; n > 0; --n)
        ev.unit_list.push_back(randomInt<std::size_t>(rng));
    ev.epoch = randomInt<std::uint64_t>(rng);
    ev.recovered = (rng() & 1) != 0;
    for (std::size_t n = rng() % 5; n > 0; --n)
        ev.versions.push_back(randomInt<std::int64_t>(rng));
    ev.scope = randomInt<std::uint32_t>(rng);
    ev.port = randomInt<std::uint16_t>(rng);
    ev.reason = (rng() & 1) != 0 ? net::session::RejectReason::BadEpoch
                                 : net::session::RejectReason::StaleToken;
    ev.inc = randomInt<std::uint32_t>(rng);
    ev.mode = static_cast<net::session::AdmitMode>(rng() % 3);
    ev.session = randomInt<std::uint32_t>(rng);
    ev.start = randomInt<std::int64_t>(rng);
    ev.model_bytes = randomInt<std::size_t>(rng);
    ev.done_iter = randomInt<std::int64_t>(rng);
    ev.from = static_cast<core::MemberState>(rng() % 4);
    ev.to = static_cast<core::MemberState>(rng() % 4);
    ev.phi = randomDouble(rng);
    ev.units = randomInt<std::size_t>(rng);
    ev.applied = randomInt<std::size_t>(rng);
    ev.tries = randomInt<std::size_t>(rng);
    ev.token = randomInt<std::uint64_t>(rng);
    ev.silence = randomDouble(rng);
    ev.why = kWhy[rng() % std::size(kWhy)];
    return ev;
}

net::transport::MessageKey
randomKey(std::mt19937_64 &rng)
{
    net::transport::MessageKey key;
    key.worker = randomInt<std::uint16_t>(rng);
    key.version = randomInt<std::int64_t>(rng);
    key.row = randomInt<std::uint32_t>(rng);
    key.pull = (rng() & 1) != 0;
    return key;
}

TransportEvent
randomTransportEvent(std::mt19937_64 &rng, std::size_t i)
{
    TransportEvent ev;
    ev.kind = static_cast<TransportEvent::Kind>(i % 8);
    ev.t = randomDouble(rng);
    ev.link = randomInt<std::size_t>(rng);
    ev.key = randomKey(rng);
    ev.chunk_seq = randomInt<std::uint32_t>(rng);
    ev.a = randomDouble(rng);
    ev.b = randomDouble(rng);
    return ev;
}

TransportTrace
randomTrace(std::mt19937_64 &rng)
{
    TransportTrace tr;
    tr.config.backend = (rng() & 1) != 0 ? "udp" : "tcp";
    tr.config.chunk_bytes = randomInt<std::uint64_t>(rng);
    tr.config.max_attempts = randomInt<std::size_t>(rng);
    tr.config.backoff_base_s = randomDouble(rng);
    tr.config.backoff_max_s = randomDouble(rng);
    tr.config.jitter_frac = randomDouble(rng);
    tr.config.jitter_seed = randomInt<std::uint64_t>(rng);
    tr.config.resume_from_offset = (rng() & 1) != 0;
    for (std::size_t n = rng() % 4; n > 0; --n)
        tr.sends.push_back({randomInt<std::size_t>(rng), randomKey(rng),
                            randomInt<std::uint64_t>(rng),
                            randomDouble(rng)});
    for (std::size_t n = rng() % 4; n > 0; --n)
        tr.attempts.push_back(
            {randomInt<std::size_t>(rng), randomKey(rng),
             randomInt<std::uint32_t>(rng), randomInt<std::uint64_t>(rng),
             static_cast<net::transport::AttemptOutcome>(rng() % 5),
             randomInt<std::uint64_t>(rng), randomDouble(rng),
             (rng() & 1) != 0});
    for (std::size_t n = rng() % 4; n > 0; --n)
        tr.rx.push_back({randomInt<std::size_t>(rng), randomKey(rng),
                         randomInt<std::uint32_t>(rng),
                         randomInt<std::uint64_t>(rng),
                         randomInt<std::uint32_t>(rng),
                         randomInt<std::uint32_t>(rng), (rng() & 1) != 0});
    return tr;
}

std::string
streamed(double v, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << v;
    return os.str();
}

std::string
appended(double v, int precision)
{
    std::string out = "x"; // appends, never overwrites.
    appendNumber(out, v, precision);
    return out.substr(1);
}

TEST(LineRenderDiff, NodeEventsOfEveryKindMatchTheStreamWriter)
{
    std::mt19937_64 rng(0x6e6f6465);
    std::string line;
    for (std::size_t i = 0; i < 200000; ++i) {
        const NodeEvent ev = randomNodeEvent(rng, i);
        const std::string want = legacy::nodeEventLine(ev);
        line.clear();
        core::appendLine(ev, line);
        ASSERT_EQ(line, want) << "event " << i;
        ASSERT_EQ(core::toLine(ev), want) << "event " << i;
    }
}

TEST(LineRenderDiff, TransportEventsMatchTheStreamWriter)
{
    std::mt19937_64 rng(0x74726e73);
    for (std::size_t i = 0; i < 200000; ++i) {
        const TransportEvent ev = randomTransportEvent(rng, i);
        ASSERT_EQ(net::transport::toString(ev),
                  legacy::transportEventLine(ev))
            << "event " << i;
    }
}

TEST(LineRenderDiff, NormalizedLogMatchesTheStreamWriter)
{
    std::mt19937_64 rng(0x6e726d6c);
    std::vector<TransportEvent> log;
    std::string want;
    for (std::size_t i = 0; i < 2000; ++i) {
        log.push_back(randomTransportEvent(rng, i));
        TransportEvent ev = log.back();
        ev.t = 0.0;
        want += legacy::transportEventLine(ev) + '\n';
    }
    EXPECT_EQ(net::transport::renderNormalized(log), want);
}

TEST(LineRenderDiff, WireTracesMatchTheStreamWriter)
{
    std::mt19937_64 rng(0x74726163);
    for (std::size_t i = 0; i < 5000; ++i) {
        const TransportTrace tr = randomTrace(rng);
        ASSERT_EQ(tr.toText(), legacy::traceText(tr)) << "trace " << i;
    }
}

TEST(AppendNumber, SpecialValuesAndSwitchPointsAreSpelledAsPrintfG)
{
    EXPECT_EQ(appended(1e-05, 6), "1e-05");
    EXPECT_EQ(appended(0.0001, 6), "0.0001");
    EXPECT_EQ(appended(999999, 6), "999999");
    EXPECT_EQ(appended(1e+06, 6), "1e+06");
    EXPECT_EQ(appended(999999.5, 6), "1e+06");
    EXPECT_EQ(appended(0.0, 6), "0");
    EXPECT_EQ(appended(-0.0, 6), "-0");
    EXPECT_EQ(appended(Lim::infinity(), 6), "inf");
    EXPECT_EQ(appended(-Lim::infinity(), 17), "-inf");
    EXPECT_EQ(appended(Lim::quiet_NaN(), 6), "nan");
    EXPECT_EQ(appended(-Lim::quiet_NaN(), 17), "-nan");
    EXPECT_EQ(appended(0.1, 17), "0.10000000000000001");
    EXPECT_EQ(appended(Lim::max(), 17), "1.7976931348623157e+308");
    for (const double v : kSpecials)
        for (int p = 1; p <= 17; ++p)
            EXPECT_EQ(appended(v, p), streamed(v, p))
                << "precision " << p << " value " << streamed(v, 17);
}

TEST(AppendNumber, RandomDoublesMatchTheStreamAtEveryPrecision)
{
    std::mt19937_64 rng(0x70726563);
    for (std::size_t i = 0; i < 100000; ++i) {
        const double v = randomDouble(rng);
        const int p = 1 + static_cast<int>(i % 17);
        ASSERT_EQ(appended(v, p), streamed(v, p))
            << "precision " << p << " value " << streamed(v, 17);
    }
}

/** At 17 digits every finite value, subnormals included, comes back
 *  bit for bit. At the run log's 6 digits every finite value reads
 *  back to one that re-renders the same. */
TEST(AppendNumber, FiniteValuesRoundTripThroughParseNumber)
{
    std::mt19937_64 rng(0x726f756e);
    std::vector<double> values = kSpecials;
    for (std::size_t i = 0; i < 200000; ++i)
        values.push_back(randomDouble(rng));
    std::size_t checked = 0;
    std::size_t subnormals = 0;
    for (const double v : values) {
        if (!std::isfinite(v))
            continue;
        const std::string text = appended(v, 17);
        double back = 0.0;
        ASSERT_TRUE(parseNumber(text, back)) << text;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
                  std::bit_cast<std::uint64_t>(v))
            << text;
        ++checked;
        if (v != 0.0 && std::fabs(v) < Lim::min())
            ++subnormals;
        const std::string six = appended(v, 6);
        ASSERT_TRUE(parseNumber(six, back)) << six;
        ASSERT_EQ(appended(back, 6), six);
    }
    EXPECT_GT(checked, 100000u);
    EXPECT_GT(subnormals, 0u);
}

TEST(AppendNumber, IntegersRoundTripAtTheirLimits)
{
    std::mt19937_64 rng(0x696e7473);
    std::vector<std::int64_t> signed_values = {
        0, -1, 1, std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()};
    std::vector<std::uint64_t> unsigned_values = {
        0, 1, std::numeric_limits<std::uint64_t>::max()};
    for (std::size_t i = 0; i < 10000; ++i) {
        signed_values.push_back(static_cast<std::int64_t>(rng()));
        unsigned_values.push_back(rng());
    }
    for (const std::int64_t v : signed_values) {
        std::string text;
        appendNumber(text, v);
        std::int64_t back = 0;
        ASSERT_TRUE(parseNumber(text, back)) << text;
        ASSERT_EQ(back, v);
        ASSERT_EQ(text, std::to_string(v));
    }
    for (const std::uint64_t v : unsigned_values) {
        std::string text;
        appendNumber(text, v);
        std::uint64_t back = 0;
        ASSERT_TRUE(parseNumber(text, back)) << text;
        ASSERT_EQ(back, v);
        ASSERT_EQ(text, std::to_string(v));
    }
    std::string small;
    appendNumber(small, std::uint16_t{65535});
    appendNumber(small, std::uint32_t{7});
    EXPECT_EQ(small, "655357");
}

} // namespace
} // namespace rog
