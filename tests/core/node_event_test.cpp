/**
 * @file
 * The node run log's one writer and one reader. A golden table holds
 * one literal line per NodeEvent kind, in the exact bytes the node
 * roles and runners write (the per-push `apply` and `dup_push` records
 * list their units); each must parse to its kind and re-render
 * byte-identically. Every rejection path
 * names its problem, and readNodeLog skips only an unterminated final
 * line.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "core/node_event.hpp"

namespace rog {
namespace core {
namespace {

using K = NodeEvent::Kind;

struct Golden
{
    K kind;
    const char *line;
};

// clang-format off
const Golden kGolden[] = {
    {K::RecoverFailed,
     "t=0 recover_failed why=\"fatal: cannot open 'run/checkpoint.rogs' "
     "for reading @ src/core/server_checkpoint.cpp:340\""},
    {K::ServerStart, "t=0.00570083 server_start epoch=1 recovered=0"},
    {K::RecoverW,
     "t=0.000529577 recover_w w=0 versions=2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,"
     "2,2,2,2,2,2,2"},
    {K::StaleDrop, "t=0.600246 stale_drop w=0 scope=1"},
    {K::HelloConnectFailed, "t=2.5 hello_connect_failed w=1 port=40123"},
    {K::Reject, "t=0.0724488 reject w=2 reason=bad_epoch inc=0"},
    {K::Admit,
     "t=0.00573024 admit w=1 mode=fresh session=1 start=0 inc=0 "
     "model_bytes=742 epoch=1"},
    {K::DupPush, "t=0.61 dup_push w=2 iter=3 unit_list=7"},
    {K::Apply,
     "t=0.00600171 apply w=3 iter=1 unit_list=0,1,2,3,4,5,6,7,8,9,10,11,"
     "12,13,14,15,16,17,18,19,20,21"},
    {K::PullReq, "t=0.00757091 pull_req w=0 iter=1"},
    {K::ServerBye, "t=0.340143 bye w=3 done_iter=8"},
    {K::Member, "t=1.51025 member w=1 from=alive to=suspect phi=0"},
    {K::Evict, "t=1.51027 evict w=1"},
    {K::PullAnswer, "t=0.00757937 pull_answer w=0 iter=1 units=22"},
    {K::Checkpoint, "t=0.00636114 checkpoint iter=0 applied=8"},
    {K::ServerDone, "t=0.344941 server_done"},
    {K::ConnectFailed, "t=0 connect_failed"},
    {K::Hello, "t=0.000137175 hello try=0 inc=0 token=0 done_iter=0"},
    {K::HelloGiveup, "t=31.5 hello_giveup"},
    {K::Welcome,
     "t=0.000821881 welcome mode=fresh session=4 start=0 epoch=1 "
     "model_bytes=742"},
    {K::Rejected, "t=0.611288 rejected reason=bad_epoch"},
    {K::PushBegin, "t=0.000827367 iter=1 phase=push_begin"},
    {K::Repush, "t=0.611384 iter=3 phase=repush units=22"},
    {K::PushDone, "t=0.00201122 iter=1 phase=push_done"},
    {K::Applied, "t=0.0029886 iter=1 phase=applied units=22"},
    {K::WorkerBye, "t=0.334477 bye done_iter=8"},
    {K::ServerSuspect, "t=1.50896 server_suspect silence=1.47859"},
    {K::Resync, "t=0.510761 resync why=heartbeat_failed"},
    {K::StateWriteFailed,
     "t=0.0029886 state_write_failed iter=1 why=\"fatal: durable write "
     "of 'run/worker0.rogw': open of the temporary file failed: No such "
     "file or directory @ src/common/durable_file.cpp:88\""},
    {K::WorkerStart, "worker_start w=0 inc=0 token=0 done_iter=0"},
    {K::ServerTimeout, "server_timeout"},
    {K::WorkerTimeout, "worker_timeout"},
    {K::DesServerKilled, "des_server_killed"},
    // Shapes beyond one-per-kind that the writer also produces.
    {K::Member, "t=1.6 member w=1 from=suspect to=dead phi=inf"},
    {K::Admit,
     "t=1.23457e+06 admit w=2 mode=resume session=9 start=17 inc=3 "
     "model_bytes=0 epoch=4"},
    {K::Hello,
     "t=12.5 hello try=7 inc=2 token=18446744073709551615 done_iter=-1"},
    {K::RecoverFailed, "t=0 recover_failed why=\"say \"no\" twice\""},
    {K::DupPush, "t=0.61 dup_push w=2 iter=3 unit_list=21,0,7"},
    {K::Apply,
     "t=3.5 apply w=239 iter=9223372036854775807 "
     "unit_list=18446744073709551615"},
};
// clang-format on

TEST(NodeEventGolden, EveryKindParsesAndReRendersByteIdentically)
{
    std::set<K> seen;
    for (const Golden &g : kGolden) {
        const NodeEventParseResult res = tryParseNodeEvent(g.line);
        ASSERT_TRUE(res.ok()) << g.line << "\n  " << res.error;
        EXPECT_EQ(res.event.kind, g.kind) << g.line;
        EXPECT_EQ(toLine(res.event), g.line);
        seen.insert(g.kind);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(K::DesServerKilled) + 1)
        << "a NodeEvent kind has no golden line";
}

TEST(NodeEventGolden, FieldsAreTyped)
{
    const NodeEvent admit =
        tryParseNodeEvent("t=0.00573024 admit w=1 mode=fresh session=1 "
                          "start=0 inc=0 model_bytes=742 epoch=1")
            .event;
    EXPECT_DOUBLE_EQ(admit.t, 0.00573024);
    EXPECT_EQ(admit.w, 1u);
    EXPECT_EQ(admit.mode, net::session::AdmitMode::Fresh);
    EXPECT_EQ(admit.model_bytes, 742u);
    EXPECT_EQ(admit.epoch, 1u);

    const NodeEvent member =
        tryParseNodeEvent("t=1.6 member w=1 from=suspect to=dead phi=inf")
            .event;
    EXPECT_EQ(member.from, MemberState::Suspect);
    EXPECT_EQ(member.to, MemberState::Dead);
    EXPECT_TRUE(std::isinf(member.phi));

    const NodeEvent rw =
        tryParseNodeEvent("t=0 recover_w w=1 versions=3,-1,0").event;
    EXPECT_EQ(rw.versions, (std::vector<std::int64_t>{3, -1, 0}));

    const NodeEvent quoted =
        tryParseNodeEvent("t=0 recover_failed why=\"say \"no\" twice\"")
            .event;
    EXPECT_EQ(quoted.why, "say \"no\" twice");

    const NodeEvent apply =
        tryParseNodeEvent("t=0.2 apply w=1 iter=4 unit_list=5,0,3").event;
    EXPECT_EQ(apply.kind, K::Apply);
    EXPECT_EQ(apply.unit_list, (std::vector<std::size_t>{5, 0, 3}));

    // The writer side of the same record.
    NodeEvent ev{.kind = K::Apply, .t = 0.00600171, .w = 3, .iter = 1,
                 .unit_list = {0, 1}};
    EXPECT_EQ(toLine(ev), "t=0.00600171 apply w=3 iter=1 unit_list=0,1");
    ev.kind = K::DupPush;
    EXPECT_EQ(toLine(ev),
              "t=0.00600171 dup_push w=3 iter=1 unit_list=0,1");
}

struct RejectCase
{
    const char *line;
    const char *why; //!< substring the diagnostic must contain.
};

TEST(NodeEventParse, EveryRejectionPathNamesTheProblem)
{
    const RejectCase cases[] = {
        {"", "missing a word"},
        {"t=1 explode w=0", "unknown node event 'explode'"},
        {"t=1 iter=2 phase=sideways", "unknown node event 'sideways'"},
        {"t=1 apply w=0 iter=1", "missing 'unit_list='"},
        {"t=1 dup_push w=0 iter=1", "missing 'unit_list='"},
        {"t=1 apply w=0 iter=1 unit=0", "expected 'unit_list=...'"},
        {"t=1 apply w=0 unit_list=0 iter=1", "expected 'iter=...'"},
        {"t=1 apply w=0 iter=1 unit_list=0 extra=1", "writer's form"},
        {"t=1  apply w=0 iter=1 unit_list=0", "writer's form"},
        {"t=1.0 apply w=0 iter=1 unit_list=0", "writer's form"},
        {"apply w=0 iter=1 unit_list=0", "apply needs a time"},
        {"t=1 apply w=0 iter=1 unit_list=", "empty list for 'unit_list'"},
        {"t=1 dup_push w=0 iter=1 unit_list=",
         "empty list for 'unit_list'"},
        {"t=1 apply w=0 iter=1 unit_list=0,x",
         "bad item in 'unit_list': 'x'"},
        {"t=1 dup_push w=0 iter=1 unit_list=3,,4",
         "bad item in 'unit_list': ''"},
        {"t=1 apply w=0 iter=1 unit_list=-1",
         "bad item in 'unit_list': '-1'"},
        {"t=1 apply w=0 iter=1 unit_list=18446744073709551616",
         "bad item in 'unit_list'"},
        {"t=1 apply w=0 iter=1 unit_list=0,", "writer's form"},
        {"t=1 apply w=0 iter=1 unit_list=0,01", "writer's form"},
        {"t=0 worker_start w=0 inc=0 token=0 done_iter=0",
         "worker_start takes no time"},
        {"t=nan apply w=0 iter=1 unit_list=0", "bad number for 't'"},
        {"t=1e999 apply w=0 iter=1 unit_list=0", "bad number for 't'"},
        {"t=1 apply w=-1 iter=1 unit_list=0", "bad integer for 'w'"},
        {"t=1 apply w=0 iter=99999999999999999999 unit_list=0",
         "bad integer for 'iter'"},
        {"t=1 stale_drop w=0 scope=4294967296", "scope out of range"},
        {"t=1 server_start epoch=1 recovered=2", "recovered out of range"},
        {"t=1 reject w=0 reason=bogus inc=0", "unknown reason 'bogus'"},
        {"t=1 admit w=0 mode=sideways session=1 start=0 inc=0 "
         "model_bytes=0 epoch=1",
         "unknown mode 'sideways'"},
        {"t=1 member w=0 from=alive to=gone phi=0", "unknown to 'gone'"},
        {"t=1 recover_w w=0 versions=1,x", "bad item in 'versions': 'x'"},
        {"t=1 recover_w w=0 versions=1,,2", "bad item in 'versions': ''"},
        {"t=1 recover_w w=0 versions=", "empty list for 'versions'"},
        {"t=1 recover_failed why=\"open", "unterminated quoted value"},
        {"t=1 apply w= iter=1 unit_list=0", "empty value for 'w'"},
        {"t=1 apply =0 iter=1 unit_list=0", "expected key=value"},
        {"t=1 apply w=0 iter=1 unit_list=\"0\"",
         "bad item in 'unit_list': '\"0\"'"},
        {"t=1 recover_failed why=plain", "writer's form"},
    };
    for (const RejectCase &c : cases) {
        const NodeEventParseResult res = tryParseNodeEvent(c.line);
        EXPECT_FALSE(res.ok()) << "accepted: " << c.line;
        EXPECT_NE(res.error.find(c.why), std::string::npos)
            << "line: " << c.line << "\n  error: " << res.error
            << "\n  expected substring: " << c.why;
    }
    EXPECT_NE(tryParseNodeEvent("t=1 explode", 7).error.find("line 7: "),
              std::string::npos);
}

class NodeLogFile : public ::testing::Test
{
  protected:
    std::string
    write(const std::string &text)
    {
        const std::string path = testing::TempDir() + "rog_node_log_" +
                                 testing::UnitTest::GetInstance()
                                     ->current_test_info()
                                     ->name();
        std::ofstream(path, std::ios::trunc) << text;
        return path;
    }
};

TEST_F(NodeLogFile, UnterminatedFinalLineIsStillBeingWritten)
{
    const NodeLogReadResult res =
        readNodeLog(write("worker_start w=1 inc=0 token=0 done_iter=0\n"
                          "t=0.5 iter=1 phase=push_begin\n"
                          "t=0.6 iter=1 phase=pu"));
    ASSERT_TRUE(res.ok()) << res.error;
    ASSERT_EQ(res.events.size(), 2u);
    EXPECT_EQ(res.events[1].kind, K::PushBegin);
    EXPECT_EQ(res.events[1].iter, 1);
}

TEST_F(NodeLogFile, ABadTerminatedLineFailsTheWholeRead)
{
    const NodeLogReadResult res =
        readNodeLog(write("t=0 server_start epoch=1 recovered=0\n"
                          "t=0.1 apply w=0 iter=one unit_list=0\n"
                          "t=0.2 server_done\n"));
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("line 2: bad integer for 'iter'"),
              std::string::npos)
        << res.error;
    EXPECT_TRUE(res.events.empty());
}

TEST_F(NodeLogFile, MissingFileIsAnEmptyLog)
{
    const NodeLogReadResult res =
        readNodeLog(testing::TempDir() + "rog_node_log_does_not_exist");
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.events.empty());
}

} // namespace
} // namespace core
} // namespace rog
