/**
 * @file
 * Deterministic mutational fuzz over the text decoders built on the
 * shared strict line reader: the node run log, the fault-plan spec and
 * the socket fault spec. Mutants are seeded from valid encodings and
 * perturbed with byte edits and hostile tokens (NaN, overflow, stray
 * quotes, repeated keys). Each mutant must either be rejected with a
 * diagnostic and no partial result, or be accepted, re-rendered, and
 * parse back to the same record. Run under ASan, no mutant may touch
 * memory it does not own.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/node_event.hpp"
#include "fault/fault_plan.hpp"
#include "net/transport/socket_fault.hpp"

namespace rog {
namespace {

const char *const kHostile[] = {
    "nan", "-nan", "inf", "-inf", "infinity", "1e999", "1e-400", "-0",
    "0x10", "+1", "18446744073709551616", "-9223372036854775809", "=",
    "==", " ", "\"", "\"\"", ",", ":", "::", "#", "\t", "w=", "t=",
    "iter=", "phase=push_begin", "at=", "link=", "seed=", "drop=",
    "partition=", "why=\"", "versions=", "1,", "4294967296", "65536",
};

/** One deterministic mutation of @p s: a byte edit, a deletion, a
 *  hostile insertion, a token or value swap, a duplicated token, a
 *  cut. */
std::string
mutate(std::string s, Rng &rng)
{
    const std::string hostile =
        kHostile[rng.uniformInt(std::size(kHostile))];
    const std::size_t at =
        static_cast<std::size_t>(rng.uniformInt(s.size() + 1));
    if (at == s.size()) { // no byte to edit here: grow instead.
        s += hostile;
        return s;
    }
    // The whitespace-delimited token around `at`.
    const std::size_t b = s.find_last_of(" \n", at);
    const std::size_t begin = b == std::string::npos ? 0 : b + 1;
    const std::size_t end = std::min(s.find_first_of(" \n", at), s.size());
    const std::string tok = s.substr(begin, end - begin);
    const std::size_t eq = tok.find('=');
    switch (rng.uniformInt(7)) {
    case 0:
        s[at] = static_cast<char>(32 + rng.uniformInt(95));
        break;
    case 1:
        s.erase(at, 1 + rng.uniformInt(3));
        break;
    case 2:
        s.insert(at, hostile);
        break;
    case 3:
        s.replace(begin, end - begin, hostile);
        break;
    case 4:
        if (eq != std::string::npos)
            s.replace(begin + eq + 1, tok.size() - eq - 1, hostile);
        break;
    case 5:
        s.insert(end, " " + tok);
        break;
    default:
        s.resize(at);
        break;
    }
    return s;
}

std::string
mutant(const std::string &seed, Rng &rng)
{
    std::string s = seed;
    const std::uint64_t edits = 1 + rng.uniformInt(3);
    for (std::uint64_t i = 0; i < edits; ++i)
        s = mutate(std::move(s), rng);
    return s;
}

TEST(TextRecordFuzz, NodeLogMutantsAreRejectedOrRoundTrip)
{
    using core::NodeEvent;
    const std::vector<std::string> seeds = {
        "t=0 recover_failed why=\"fatal: cannot open 'ckpt.rogs'\"",
        "t=0.00570083 server_start epoch=1 recovered=0",
        "t=0.000529577 recover_w w=0 versions=2,2,3,2",
        "t=0.600246 stale_drop w=0 scope=1",
        "t=2.5 hello_connect_failed w=1 port=40123",
        "t=0.0724488 reject w=2 reason=bad_epoch inc=0",
        "t=0.00573024 admit w=1 mode=fresh session=1 start=0 inc=0 "
        "model_bytes=742 epoch=1",
        "t=0.61 dup_push w=2 iter=3 unit_list=7,2",
        "t=0.00600171 apply w=3 iter=1 unit_list=0,1,2,3,4,5,6,7,8,9,10,"
        "11,12,13,14,15,16,17,18,19,20,21",
        "t=0.00757091 pull_req w=0 iter=1",
        "t=0.340143 bye w=3 done_iter=8",
        "t=1.6 member w=1 from=suspect to=dead phi=inf",
        "t=1.51027 evict w=1",
        "t=0.00757937 pull_answer w=0 iter=1 units=22",
        "t=0.00636114 checkpoint iter=0 applied=8",
        "t=0.344941 server_done",
        "t=0.000137175 hello try=0 inc=0 token=0 done_iter=0",
        "t=0.000821881 welcome mode=fresh session=4 start=0 epoch=1 "
        "model_bytes=742",
        "t=0.611288 rejected reason=bad_epoch",
        "t=0.000827367 iter=1 phase=push_begin",
        "t=0.611384 iter=3 phase=repush units=22",
        "t=0.0029886 iter=1 phase=applied units=22",
        "t=0.334477 bye done_iter=8",
        "t=1.50896 server_suspect silence=1.47859",
        "t=0.510761 resync why=heartbeat_failed",
        "worker_start w=0 inc=0 token=0 done_iter=0",
        "des_server_killed",
    };
    Rng rng(0x70DE10Cu);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (const std::string &seed : seeds) {
        ASSERT_TRUE(core::tryParseNodeEvent(seed).ok()) << seed;
        for (int i = 0; i < 400; ++i) {
            const std::string m = mutant(seed, rng);
            const core::NodeEventParseResult res =
                core::tryParseNodeEvent(m);
            if (!res.ok()) {
                ++rejected;
                EXPECT_TRUE(res.event == NodeEvent{}) << m;
                continue;
            }
            ++accepted;
            const std::string again = core::toLine(res.event);
            EXPECT_EQ(again, m); // the reader accepts only its image.
            const core::NodeEventParseResult back =
                core::tryParseNodeEvent(again);
            ASSERT_TRUE(back.ok()) << again << "\n  " << back.error;
            EXPECT_TRUE(back.event == res.event) << again;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, accepted);
}

TEST(TextRecordFuzz, FaultPlanMutantsAreRejectedOrRoundTrip)
{
    using fault::FaultPlan;
    std::vector<std::string> seeds = {
        "blackout link=0 start=1 dur=2\n"
        "degrade link=1 start=0.5 dur=3 factor=0.25\n"
        "truncate link=0 at=4 bytes=1200\n"
        "timeout link=1 at=2 after=0.5\n"
        "corrupt link=0 at=1 # mid-line comment\n"
        "duplicate link=1 at=3\n"
        "crash worker=0 at=10 rejoin=20 detect=2\n"
        "leave worker=1 at=7\n"
        "server_crash iter=3\n",
    };
    fault::FaultPlanConfig cfg;
    cfg.links = 2;
    cfg.workers = 3;
    cfg.horizon_s = 30.0;
    cfg.max_corruptions_per_link = 1;
    cfg.max_duplicates_per_link = 1;
    cfg.crash_prob = 0.5;
    cfg.leave_prob = 0.5;
    for (std::uint64_t s = 0; s < 8; ++s)
        seeds.push_back(FaultPlan::random(s, cfg).toSpec());

    Rng rng(0xFA017u);
    std::size_t accepted = 0;
    for (const std::string &seed : seeds) {
        ASSERT_TRUE(FaultPlan::tryParse(seed).ok()) << seed;
        for (int i = 0; i < 300; ++i) {
            const std::string m = mutant(seed, rng);
            const FaultPlan::ParseResult res = FaultPlan::tryParse(m);
            if (!res.ok()) {
                EXPECT_TRUE(res.plan.empty()) << m;
                continue;
            }
            ++accepted;
            EXPECT_TRUE(res.plan.validationError().empty()) << m;
            const std::string spec = res.plan.toSpec();
            const FaultPlan::ParseResult back = FaultPlan::tryParse(spec);
            ASSERT_TRUE(back.ok()) << spec << "\n  " << back.error;
            EXPECT_EQ(back.plan.toSpec(), spec) << m;
        }
    }
    EXPECT_GT(accepted, 0u);
}

/** A spec that sets every field of @p p (test-side renderer). */
std::string
render(const net::transport::SocketFaultPlan &p)
{
    std::ostringstream os;
    os.precision(17);
    os << "seed=" << p.seed << " drop=" << p.drop_p << " dup=" << p.dup_p
       << " trunc=" << p.trunc_p << " corrupt=" << p.corrupt_p
       << " delay=" << p.delay_p << ':' << p.delay_s;
    if (p.part_end_s > p.part_begin_s)
        os << " partition=" << p.part_begin_s << ':'
           << p.part_end_s - p.part_begin_s;
    return os.str();
}

TEST(TextRecordFuzz, SocketFaultSpecMutantsAreRejectedOrRoundTrip)
{
    using net::transport::SocketFaultPlan;
    const std::vector<std::string> seeds = {
        "seed=7 drop=0.1 dup=0.05 trunc=0.2 corrupt=0.05 delay=0.1:0.02",
        "partition=2:1.5",
        "delay=0.5",
        "seed=18446744073709551615 drop=1 partition=0:inf",
        "corrupt=0.25 partition=0.02:2.5 seed=3",
    };
    Rng rng(0x50CFA17u);
    std::size_t accepted = 0;
    for (const std::string &seed : seeds) {
        ASSERT_TRUE(SocketFaultPlan::tryParse(seed).ok()) << seed;
        for (int i = 0; i < 600; ++i) {
            const std::string m = mutant(seed, rng);
            const auto res = SocketFaultPlan::tryParse(m);
            if (!res.ok()) {
                EXPECT_TRUE(res.plan.clean()) << m;
                EXPECT_EQ(res.plan.seed, 1u) << m;
                continue;
            }
            ++accepted;
            const SocketFaultPlan &p = res.plan;
            for (double prob :
                 {p.drop_p, p.dup_p, p.trunc_p, p.corrupt_p, p.delay_p})
                EXPECT_TRUE(prob >= 0.0 && prob <= 1.0) << m;
            EXPECT_TRUE(std::isfinite(p.delay_s) && p.delay_s >= 0.0) << m;
            EXPECT_TRUE(p.part_begin_s >= 0.0) << m;

            const std::string spec = render(p);
            const auto back = SocketFaultPlan::tryParse(spec);
            ASSERT_TRUE(back.ok()) << spec << "\n  " << back.error;
            const SocketFaultPlan &q = back.plan;
            EXPECT_EQ(q.seed, p.seed);
            EXPECT_EQ(q.drop_p, p.drop_p);
            EXPECT_EQ(q.dup_p, p.dup_p);
            EXPECT_EQ(q.trunc_p, p.trunc_p);
            EXPECT_EQ(q.corrupt_p, p.corrupt_p);
            EXPECT_EQ(q.delay_p, p.delay_p);
            EXPECT_EQ(q.delay_s, p.delay_s);
            EXPECT_EQ(q.clean(), p.clean()) << m;
            if (p.part_end_s > p.part_begin_s) {
                EXPECT_EQ(q.part_begin_s, p.part_begin_s) << m;
                EXPECT_DOUBLE_EQ(q.part_end_s, p.part_end_s) << m;
            }
        }
    }
    EXPECT_GT(accepted, 0u);
}

} // namespace
} // namespace rog
