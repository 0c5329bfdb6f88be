/**
 * @file
 * Wire-level fault plan parsing and the injector's determinism
 * guarantees. The parser follows the FaultPlan::tryParse contract —
 * every malformed spec is rejected with a message naming the problem —
 * and the injector's fixed per-datagram draw order means enabling one
 * fault never shifts another fault's decisions.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/transport/socket_fault.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

TEST(SocketFaultPlanParse, FullSpecParses)
{
    const auto res = SocketFaultPlan::tryParse(
        "seed=7 drop=0.1 dup=0.05 trunc=0.2 corrupt=0.05 "
        "delay=0.1:0.02");
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.plan.seed, 7u);
    EXPECT_DOUBLE_EQ(res.plan.drop_p, 0.1);
    EXPECT_DOUBLE_EQ(res.plan.dup_p, 0.05);
    EXPECT_DOUBLE_EQ(res.plan.trunc_p, 0.2);
    EXPECT_DOUBLE_EQ(res.plan.corrupt_p, 0.05);
    EXPECT_DOUBLE_EQ(res.plan.delay_p, 0.1);
    EXPECT_DOUBLE_EQ(res.plan.delay_s, 0.02);
    EXPECT_FALSE(res.plan.clean());
}

TEST(SocketFaultPlanParse, EmptySpecIsCleanDefaults)
{
    const auto res = SocketFaultPlan::tryParse("");
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_TRUE(res.plan.clean());
    EXPECT_EQ(res.plan.seed, 1u);
    EXPECT_DOUBLE_EQ(res.plan.delay_s, 0.01);
}

TEST(SocketFaultPlanParse, DelayWithoutSecondsKeepsDefault)
{
    const auto res = SocketFaultPlan::tryParse("delay=0.5");
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_DOUBLE_EQ(res.plan.delay_p, 0.5);
    EXPECT_DOUBLE_EQ(res.plan.delay_s, 0.01);
}

struct RejectCase
{
    const char *spec;
    const char *why;
};

TEST(SocketFaultPlanParse, EveryRejectionPathNamesTheProblem)
{
    const RejectCase cases[] = {
        {"drop", "is not key=value"},
        {"jam=0.5", "unknown fault key 'jam'"},
        {"seed=-3", "seed needs an unsigned integer"},
        {"seed=abc", "seed needs an unsigned integer"},
        {"drop=1.5", "drop needs a probability in [0, 1]"},
        {"drop=-0.1", "drop needs a probability in [0, 1]"},
        {"dup=x", "dup needs a probability in [0, 1]"},
        {"trunc=2", "trunc needs a probability in [0, 1]"},
        {"corrupt=", "corrupt needs a probability in [0, 1]"},
        {"delay=1.5:0.1", "delay needs a probability in [0, 1]"},
        {"delay=0.5:-1", "delay seconds must be non-negative"},
        {"delay=0.5:fast", "delay seconds must be non-negative"},
        // NaN and overflow once slipped past the range checks.
        {"drop=nan", "drop needs a probability in [0, 1]"},
        {"delay=0.5:nan", "delay seconds must be non-negative"},
        {"delay=0.5:1e999", "delay seconds must be non-negative"},
        {"delay=0.5:inf", "delay seconds must be non-negative"},
        {"partition=nan:1", "partition needs non-negative begin"},
        {"partition=0:nan", "partition needs non-negative begin"},
        {"drop=0.1 drop=0.2", "duplicate fault key 'drop'"},
        {"drop=\"0.1\"", "drop needs a probability in [0, 1]"},
        {"seed=18446744073709551616", "seed needs an unsigned integer"},
    };
    for (const RejectCase &c : cases) {
        const auto res = SocketFaultPlan::tryParse(c.spec);
        EXPECT_FALSE(res.ok()) << "accepted: " << c.spec;
        EXPECT_NE(res.error.find(c.why), std::string::npos)
            << "spec: " << c.spec << "\n  error: " << res.error
            << "\n  expected substring: " << c.why;
        // A rejected spec never leaks partial state.
        EXPECT_TRUE(res.plan.clean());
        EXPECT_EQ(res.plan.seed, 1u);
    }
}

TEST(SocketFaultInjector, SameSeedSamePlanSameFateStream)
{
    SocketFaultPlan plan;
    plan.seed = 42;
    plan.drop_p = 0.2;
    plan.dup_p = 0.2;
    plan.trunc_p = 0.2;
    plan.corrupt_p = 0.2;
    plan.delay_p = 0.2;
    plan.delay_s = 0.003;

    SocketFaultInjector a(plan);
    SocketFaultInjector b(plan);
    for (int i = 0; i < 500; ++i) {
        const DatagramFate fa = a.next();
        const DatagramFate fb = b.next();
        EXPECT_EQ(fa.drop, fb.drop);
        EXPECT_EQ(fa.duplicate, fb.duplicate);
        EXPECT_EQ(fa.corrupt, fb.corrupt);
        EXPECT_DOUBLE_EQ(fa.keep_frac, fb.keep_frac);
        EXPECT_DOUBLE_EQ(fa.delay_s, fb.delay_s);
    }
    EXPECT_EQ(a.decided(), 500u);
    EXPECT_EQ(b.decided(), 500u);
}

TEST(SocketFaultInjector, FixedDrawOrderIsolatesFaultKnobs)
{
    // Turning duplication on must not move the drop decisions: every
    // datagram consumes the same six draws whether or not each fault
    // is enabled.
    SocketFaultPlan drops_only;
    drops_only.seed = 9;
    drops_only.drop_p = 0.3;

    SocketFaultPlan drops_and_more = drops_only;
    drops_and_more.dup_p = 0.5;
    drops_and_more.trunc_p = 0.5;
    drops_and_more.corrupt_p = 0.5;
    drops_and_more.delay_p = 0.5;

    SocketFaultInjector a(drops_only);
    SocketFaultInjector b(drops_and_more);
    std::size_t dropped = 0;
    for (int i = 0; i < 300; ++i) {
        const DatagramFate fa = a.next();
        const DatagramFate fb = b.next();
        EXPECT_EQ(fa.drop, fb.drop) << "datagram " << i;
        dropped += fa.drop ? 1u : 0u;
        // The drops-only plan never touches the other knobs.
        EXPECT_FALSE(fa.duplicate);
        EXPECT_FALSE(fa.corrupt);
        EXPECT_DOUBLE_EQ(fa.keep_frac, 1.0);
        EXPECT_DOUBLE_EQ(fa.delay_s, 0.0);
    }
    // With p=0.3 over 300 draws, some but not all are dropped.
    EXPECT_GT(dropped, 0u);
    EXPECT_LT(dropped, 300u);
}

TEST(SocketFaultInjector, TruncationKeepsAUniformPrefixFraction)
{
    SocketFaultPlan plan;
    plan.seed = 17;
    plan.trunc_p = 1.0;
    SocketFaultInjector inj(plan);
    for (int i = 0; i < 100; ++i) {
        const DatagramFate f = inj.next();
        EXPECT_GE(f.keep_frac, 0.0);
        EXPECT_LT(f.keep_frac, 1.0);
    }
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
