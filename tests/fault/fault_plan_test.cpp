/**
 * @file
 * Unit tests of the declarative fault-plan layer: seeded generation is
 * deterministic, the text spec round-trips, validation catches broken
 * plans, and applyLinkFaults bakes blackouts/degrades into a trace
 * exactly over their windows.
 */
#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "net/bandwidth_trace.hpp"

namespace rog {
namespace fault {
namespace {

FaultPlanConfig
busyConfig()
{
    FaultPlanConfig cfg;
    cfg.links = 3;
    cfg.workers = 4;
    cfg.horizon_s = 60.0;
    cfg.crash_prob = 0.5;
    cfg.leave_prob = 0.3;
    return cfg;
}

TEST(FaultPlan, SameSeedSamePlan)
{
    const auto cfg = busyConfig();
    const FaultPlan a = FaultPlan::random(7, cfg);
    const FaultPlan b = FaultPlan::random(7, cfg);
    EXPECT_EQ(a.toSpec(), b.toSpec());
}

TEST(FaultPlan, DifferentSeedsDiverge)
{
    const auto cfg = busyConfig();
    // Over many seeds at least most plans must differ from seed 1's.
    const std::string base = FaultPlan::random(1, cfg).toSpec();
    std::size_t distinct = 0;
    for (std::uint64_t s = 2; s < 12; ++s)
        if (FaultPlan::random(s, cfg).toSpec() != base)
            ++distinct;
    EXPECT_GE(distinct, 8u);
}

TEST(FaultPlan, RandomPlansValidate)
{
    const auto cfg = busyConfig();
    for (std::uint64_t s = 0; s < 50; ++s) {
        const FaultPlan p = FaultPlan::random(s, cfg);
        p.validate(); // dies on violation.
        for (const auto &f : p.link_faults) {
            EXPECT_LT(f.link, cfg.links);
            EXPECT_GE(f.factor, 0.0);
            EXPECT_LE(f.factor, 1.0);
            EXPECT_GT(f.duration_s, 0.0);
        }
        for (const auto &e : p.churn)
            EXPECT_LT(e.worker, cfg.workers);
    }
}

TEST(FaultPlan, SpecRoundTrips)
{
    const FaultPlan p = FaultPlan::random(42, busyConfig());
    const std::string spec = p.toSpec();
    const FaultPlan q = FaultPlan::parse(spec);
    EXPECT_EQ(spec, q.toSpec());
    EXPECT_EQ(p.link_faults.size(), q.link_faults.size());
    EXPECT_EQ(p.transfer_faults.size(), q.transfer_faults.size());
    EXPECT_EQ(p.churn.size(), q.churn.size());
}

TEST(FaultPlan, ParseReadsCommentsAndBlanks)
{
    const FaultPlan p = FaultPlan::parse(
        "# a curated scenario\n"
        "\n"
        "blackout link=1 start=10 dur=2.5\n"
        "degrade link=0 start=5 dur=10 factor=0.2\n"
        "truncate link=2 at=12 bytes=1000\n"
        "timeout link=0 at=30 after=0.5\n"
        "crash worker=3 at=600 rejoin=700 detect=30\n"
        "leave worker=2 at=400\n");
    ASSERT_EQ(p.link_faults.size(), 2u);
    EXPECT_EQ(p.link_faults[0].link, 1u);
    EXPECT_DOUBLE_EQ(p.link_faults[0].factor, 0.0);
    EXPECT_DOUBLE_EQ(p.link_faults[0].endS(), 12.5);
    EXPECT_DOUBLE_EQ(p.link_faults[1].factor, 0.2);
    ASSERT_EQ(p.transfer_faults.size(), 2u);
    EXPECT_DOUBLE_EQ(p.transfer_faults[0].truncate_bytes, 1000.0);
    EXPECT_DOUBLE_EQ(p.transfer_faults[1].force_timeout_s, 0.5);
    ASSERT_EQ(p.churn.size(), 2u);
    EXPECT_FALSE(p.churn[0].graceful);
    EXPECT_DOUBLE_EQ(p.churn[0].rejoin_s, 700.0);
    EXPECT_DOUBLE_EQ(p.churn[0].detect_s, 30.0);
    EXPECT_TRUE(p.churn[1].graceful);
    p.validate();
}

TEST(FaultPlan, CorruptionClassSpecRoundTrips)
{
    const FaultPlan p = FaultPlan::parse(
        "corrupt   link=1 at=12\n"
        "duplicate link=0 at=3\n");
    ASSERT_EQ(p.transfer_faults.size(), 2u);
    EXPECT_TRUE(p.transfer_faults[0].corrupt);
    EXPECT_EQ(p.transfer_faults[0].link, 1u);
    EXPECT_TRUE(p.transfer_faults[1].duplicate);
    EXPECT_DOUBLE_EQ(p.transfer_faults[1].at_s, 3.0);
    const FaultPlan q = FaultPlan::parse(p.toSpec());
    EXPECT_EQ(p.toSpec(), q.toSpec());
}

TEST(FaultPlan, RandomGeneratesCorruptionClassesWhenEnabled)
{
    FaultPlanConfig cfg;
    cfg.links = 2;
    cfg.horizon_s = 60.0;
    cfg.max_corruptions_per_link = 3;
    cfg.max_duplicates_per_link = 3;
    std::size_t corrupt = 0, duplicate = 0;
    for (std::uint64_t s = 0; s < 20; ++s) {
        const FaultPlan p = FaultPlan::random(s, cfg);
        p.validate();
        for (const auto &r : p.transfer_faults) {
            corrupt += r.corrupt;
            duplicate += r.duplicate;
        }
        // Enabling the knobs keeps the spec round-trip exact.
        EXPECT_EQ(FaultPlan::parse(p.toSpec()).toSpec(), p.toSpec());
    }
    EXPECT_GT(corrupt, 0u);
    EXPECT_GT(duplicate, 0u);
}

TEST(FaultPlan, ZeroedCorruptionKnobsDrawNoRng)
{
    // The corruption-class knobs default to 0 and must consume no RNG
    // draws there, so plans from pre-transport seeds replay
    // byte-identically against the old generator behaviour.
    const auto cfg = busyConfig();
    auto with_knob_fields = cfg; // same values, knobs explicitly 0.
    with_knob_fields.max_corruptions_per_link = 0;
    with_knob_fields.max_duplicates_per_link = 0;
    for (std::uint64_t s = 0; s < 10; ++s)
        EXPECT_EQ(FaultPlan::random(s, cfg).toSpec(),
                  FaultPlan::random(s, with_knob_fields).toSpec());
}

/** Expect tryParse to fail mentioning every fragment in @p needles. */
void
expectReject(const std::string &spec,
             std::initializer_list<const char *> needles)
{
    const auto res = FaultPlan::tryParse(spec);
    EXPECT_FALSE(res.ok()) << spec;
    EXPECT_TRUE(res.plan.empty()) << spec;
    for (const char *n : needles)
        EXPECT_NE(res.error.find(n), std::string::npos)
            << "error \"" << res.error << "\" lacks \"" << n << "\"";
}

TEST(FaultPlanParse, RejectsUnknownKeyword)
{
    expectReject("frobnicate link=0 at=1\n",
                 {"line 1", "unknown keyword 'frobnicate'"});
    // The reorder rule went with the receiver's reorder hold.
    expectReject("corrupt link=0 at=1\nreorder link=0 at=5\n",
                 {"line 2", "unknown keyword 'reorder'"});
}

TEST(FaultPlanParse, RejectsUnknownKey)
{
    expectReject("blackout link=0 start=1 dur=2 factor=0.5\n",
                 {"unknown key 'factor'"}); // blackout has no factor.
    expectReject("corrupt link=0 at=1 bytes=10\n",
                 {"unknown key 'bytes'"});
}

TEST(FaultPlanParse, RejectsDuplicateKey)
{
    expectReject("truncate link=0 link=1 at=1 bytes=10\n",
                 {"duplicate key 'link'"});
}

TEST(FaultPlanParse, RejectsMissingKey)
{
    expectReject("blackout link=0 start=1\n", {"missing 'dur='"});
    expectReject("corrupt at=12\n", {"missing 'link='"});
    expectReject("leave worker=1\n", {"missing 'at='"});
}

TEST(FaultPlanParse, RejectsGarbageNumbers)
{
    expectReject("blackout link=0 start=1.2.3 dur=2\n",
                 {"bad number '1.2.3'"});
    expectReject("timeout link=0 at=abc after=1\n",
                 {"bad number 'abc'"});
    expectReject("blackout link=0 start=nan dur=2\n",
                 {"bad number 'nan'"});
    expectReject("truncate link=0 at=1 bytes=12kb\n",
                 {"bad number '12kb'"});
    expectReject("blackout link=0 start=1 dur=\"2\"\n",
                 {"bad number '\"2\"'"});
    expectReject("blackout link=0 start=0x10 dur=2\n",
                 {"bad number '0x10'"});
}

TEST(FaultPlanParse, RejectsMalformedTokens)
{
    expectReject("blackout link=0 =5 dur=2\n",
                 {"expected key=value", "'=5'"});
    expectReject("blackout link=0 start= dur=2\n",
                 {"expected key=value", "'start='"});
    expectReject("blackout link=0 start dur=2\n",
                 {"expected key=value", "'start'"});
}

TEST(FaultPlanParse, RejectsBadIndices)
{
    expectReject("blackout link=-1 start=1 dur=2\n",
                 {"'link' must be a non-negative integer"});
    expectReject("crash worker=1.5 at=1 detect=2\n",
                 {"'worker' must be a non-negative integer"});
    expectReject("leave worker=inf at=1\n",
                 {"'worker' must be a non-negative integer"});
}

TEST(FaultPlanParse, RejectsCrossFieldViolations)
{
    // Structurally fine lines whose values break plan invariants.
    expectReject("crash worker=0 at=10\n",
                 {"silent crash", "rejoin or detect"});
    expectReject("degrade link=0 start=1 dur=2 factor=1.5\n",
                 {"factor must be in [0, 1]"});
    expectReject("crash worker=0 at=10 rejoin=5\n",
                 {"rejoin", "must not precede the crash"});
    expectReject("timeout link=0 at=1 after=0\n",
                 {"forced timeout must be positive"});
}

TEST(FaultPlanParse, ReportsTheOffendingLineNumber)
{
    const auto res = FaultPlan::tryParse(
        "# header comment\n"
        "blackout link=0 start=1 dur=2\n"
        "\n"
        "bogus link=0\n");
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.error.find("line 4"), std::string::npos)
        << res.error;
}

TEST(FaultPlanParse, TryParseSucceedsOnValidSpec)
{
    const auto res = FaultPlan::tryParse(
        "corrupt link=0 at=1 # mid-line comment\n"
        "crash worker=0 at=10 detect=2\n");
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_TRUE(res.error.empty());
    EXPECT_EQ(res.plan.transfer_faults.size(), 1u);
    EXPECT_EQ(res.plan.churn.size(), 1u);
}

TEST(FaultPlanParse, ParseThrowsFatalOnMalformedSpec)
{
    // ROG_FATAL throws so configuration errors are catchable.
    EXPECT_THROW(FaultPlan::parse("bogus link=0\n"),
                 std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("blackout link=0 start=x dur=1\n"),
                 std::runtime_error);
    try {
        FaultPlan::parse("bogus link=0\n");
        FAIL() << "parse did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("unknown keyword"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultPlanDeathTest, ValidateRejectsGhostCrash)
{
    // A silent crash with neither rejoin nor detection would stall the
    // survivors forever.
    FaultPlan p;
    ChurnEvent e;
    e.worker = 0;
    e.at_s = 10.0;
    p.churn.push_back(e);
    EXPECT_DEATH(p.validate(), "");
}

TEST(FaultPlanDeathTest, ValidateRejectsBadFactor)
{
    FaultPlan p;
    LinkFault f;
    f.factor = 1.5;
    f.duration_s = 1.0;
    p.link_faults.push_back(f);
    EXPECT_DEATH(p.validate(), "");
}

TEST(ApplyLinkFaults, BlackoutZeroesWindow)
{
    const auto base = net::BandwidthTrace::constant(1000.0, 60.0);
    LinkFault f;
    f.link = 0;
    f.start_s = 10.0;
    f.duration_s = 5.0;
    f.factor = 0.0;
    const auto out = applyLinkFaults(base, {&f, 1}, 0, 60.0);
    EXPECT_NEAR(out.bytesPerSecAt(5.0), 1000.0, 1e-6);
    EXPECT_NEAR(out.bytesPerSecAt(12.0), 0.0, 1e-9);
    EXPECT_NEAR(out.bytesPerSecAt(20.0), 1000.0, 1e-6);
}

TEST(ApplyLinkFaults, CoveringFactorsMultiply)
{
    const auto base = net::BandwidthTrace::constant(1000.0, 60.0);
    std::vector<LinkFault> fs(2);
    fs[0] = {0, 10.0, 20.0, 0.5};
    fs[1] = {0, 15.0, 10.0, 0.5};
    const auto out = applyLinkFaults(base, fs, 0, 60.0);
    EXPECT_NEAR(out.bytesPerSecAt(12.0), 500.0, 1e-6);
    EXPECT_NEAR(out.bytesPerSecAt(20.0), 250.0, 1e-6);
    EXPECT_NEAR(out.bytesPerSecAt(27.0), 500.0, 1e-6);
    EXPECT_NEAR(out.bytesPerSecAt(40.0), 1000.0, 1e-6);
}

TEST(ApplyLinkFaults, OtherLinksUntouched)
{
    const auto base = net::BandwidthTrace::constant(1000.0, 60.0);
    LinkFault f;
    f.link = 1;
    f.start_s = 0.0;
    f.duration_s = 60.0;
    f.factor = 0.0;
    const auto out = applyLinkFaults(base, {&f, 1}, 0, 60.0);
    EXPECT_NEAR(out.bytesPerSecAt(30.0), 1000.0, 1e-6);
}

TEST(ApplyLinkFaults, ResultSpansHorizonSoFaultsDontRecur)
{
    // The base trace loops every 60 s; the perturbed trace must span
    // the horizon so a 10-15 s blackout does not come back at 70 s.
    const auto base = net::BandwidthTrace::constant(1000.0, 60.0);
    LinkFault f;
    f.link = 0;
    f.start_s = 10.0;
    f.duration_s = 5.0;
    f.factor = 0.0;
    const auto out = applyLinkFaults(base, {&f, 1}, 0, 200.0);
    EXPECT_GE(out.durationSeconds(), 200.0 - 1e-6);
    EXPECT_NEAR(out.bytesPerSecAt(72.0), 1000.0, 1e-6);
    EXPECT_NEAR(out.bytesPerSecAt(132.0), 1000.0, 1e-6);
}

TEST(FaultPlan, ServerCrashSpecRoundTrips)
{
    const FaultPlan p = FaultPlan::parse("server_crash iter=12\n"
                                         "server_crash iter=3\n");
    ASSERT_EQ(p.server_crashes.size(), 2u);
    EXPECT_EQ(p.server_crashes[0].at_iter, 12);
    EXPECT_EQ(p.server_crashes[1].at_iter, 3);
    EXPECT_FALSE(p.empty());
    const FaultPlan q = FaultPlan::parse(p.toSpec());
    EXPECT_EQ(p.toSpec(), q.toSpec());
}

TEST(FaultPlanParse, RejectsMalformedServerCrash)
{
    expectReject("server_crash iter=0\n",
                 {"server crash iteration"});
    expectReject("server_crash at=3\n", {"unknown key 'at'"});
    expectReject("server_crash iter=1 iter=2\n",
                 {"duplicate key 'iter'"});
    expectReject("server_crash iter=1.5\n",
                 {"'iter' must be a non-negative integer"});
    expectReject("server_crash iter=sometimes\n",
                 {"bad number 'sometimes'"});
    expectReject("server_crash\n", {"missing 'iter='"});
}

TEST(FaultPlan, RandomGeneratesServerCrashesWhenEnabled)
{
    FaultPlanConfig cfg;
    cfg.links = 2;
    cfg.horizon_s = 60.0;
    cfg.server_crash_prob = 0.8;
    cfg.server_crash_max_iter = 40;
    std::size_t crashes = 0;
    for (std::uint64_t s = 0; s < 20; ++s) {
        const FaultPlan p = FaultPlan::random(s, cfg);
        p.validate();
        for (const auto &e : p.server_crashes) {
            EXPECT_GE(e.at_iter, 1);
            EXPECT_LE(e.at_iter, cfg.server_crash_max_iter);
            ++crashes;
        }
        EXPECT_EQ(FaultPlan::parse(p.toSpec()).toSpec(), p.toSpec());
    }
    EXPECT_GT(crashes, 0u);
}

TEST(FaultPlan, ZeroedServerCrashKnobDrawsNoRng)
{
    // Like the corruption-class knobs: a disabled server_crash_prob
    // must consume no RNG draws, so pre-recovery seeds replay
    // byte-identically against the old generator behaviour.
    const auto cfg = busyConfig();
    auto with_knob = cfg;
    with_knob.server_crash_prob = 0.0;
    with_knob.server_crash_max_iter = 0;
    for (std::uint64_t s = 0; s < 10; ++s)
        EXPECT_EQ(FaultPlan::random(s, cfg).toSpec(),
                  FaultPlan::random(s, with_knob).toSpec());
}

} // namespace
} // namespace fault
} // namespace rog
