/**
 * @file
 * The InvariantChecker's transport invariants, fed hand-built
 * TransportEvents: each broken invariant is exactly one violation, and
 * the legal neighbours of each case are none.
 */
#include <gtest/gtest.h>

#include "fault/invariant_checker.hpp"

namespace rog {
namespace fault {
namespace {

using net::transport::MessageKey;
using net::transport::TransportEvent;
using Kind = TransportEvent::Kind;

TransportEvent
event(Kind kind, const MessageKey &key, std::uint32_t seq = 0,
      double a = 0.0, double b = 0.0)
{
    TransportEvent ev;
    ev.kind = kind;
    ev.key = key;
    ev.chunk_seq = seq;
    ev.a = a;
    ev.b = b;
    return ev;
}

const MessageKey kPush{2, 7, 3, false};
const MessageKey kPull{2, 7, 3, true};

TEST(CheckerTransportInvariants, SecondFreshAcceptOfAChunkIsOneViolation)
{
    InvariantChecker c;
    c.onTransportEvent(event(Kind::Accept, kPush, 0));
    c.onTransportEvent(event(Kind::Accept, kPush, 1));
    c.onTransportEvent(event(Kind::Duplicate, kPush, 0)); // dedup'd: fine.
    c.onTransportEvent(event(Kind::Accept, kPull, 0)); // other direction.
    ASSERT_TRUE(c.clean()) << c.report();

    c.onTransportEvent(event(Kind::Accept, kPush, 0));
    EXPECT_EQ(c.violationCount(), 1u);
    EXPECT_NE(c.report().find("accepted a chunk twice"), std::string::npos)
        << c.report();
    EXPECT_EQ(c.checksRun(), 5u);
}

TEST(CheckerTransportInvariants, SecondDeliverOfAKeyIsOneViolation)
{
    InvariantChecker c;
    c.onTransportEvent(event(Kind::Deliver, kPush));
    c.onTransportEvent(event(Kind::Deliver, kPull));
    c.onTransportEvent(event(Kind::Deliver, MessageKey{2, 8, 3, false}));
    ASSERT_TRUE(c.clean()) << c.report();

    c.onTransportEvent(event(Kind::Deliver, kPush));
    EXPECT_EQ(c.violationCount(), 1u);
    EXPECT_NE(c.report().find("delivered a message twice"),
              std::string::npos)
        << c.report();
}

TEST(CheckerTransportInvariants, ResumePastTheRequestIsOneViolation)
{
    InvariantChecker c;
    c.onTransportEvent(event(Kind::Resume, kPush, 0, 0.0, 400.0));
    c.onTransportEvent(event(Kind::Resume, kPush, 0, 250.0, 400.0));
    c.onTransportEvent(event(Kind::Resume, kPush, 0, 400.0, 400.0));
    ASSERT_TRUE(c.clean()) << c.report();

    c.onTransportEvent(event(Kind::Resume, kPush, 0, 401.0, 400.0));
    EXPECT_EQ(c.violationCount(), 1u);
    EXPECT_NE(c.report().find("resumed 401 bytes of a 400-byte chunk"),
              std::string::npos)
        << c.report();
}

TEST(CheckerTransportInvariants, OtherKindsAreNotChecked)
{
    InvariantChecker c;
    for (const Kind k : {Kind::Attempt, Kind::Backoff, Kind::Fail})
        c.onTransportEvent(event(k, kPush));
    EXPECT_TRUE(c.clean());
    EXPECT_EQ(c.checksRun(), 0u);
}

} // namespace
} // namespace fault
} // namespace rog
