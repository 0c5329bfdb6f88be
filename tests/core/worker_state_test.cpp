/**
 * @file
 * The worker's resume record: one CRC-checked file holding the resume
 * claim and the model it was cut with. It round-trips, its strict
 * reader rejects every truncation and every flipped byte, a failed
 * write is reported, and a worker node writes it (or reports that it
 * could not) after every applied pull.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/node_engine.hpp"
#include "core/node_runner.hpp"
#include "net/session/des_fabric.hpp"
#include "nn/serialize.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace core {
namespace {

std::string
scratchDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
spill(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A record holding the node workload's real model. */
WorkerResumeState
sampleState()
{
    NodeRunConfig cfg;
    cfg.workers = 2;
    WorkerResumeState s;
    s.incarnation = 3;
    s.resume_token = 0x0123456789abcdefull;
    s.last_done_iter = 17;
    s.model = nn::saveModelBytes(*makeNodeWorkload(cfg)->buildReplica());
    return s;
}

TEST(WorkerState, RoundTrips)
{
    const std::string path = workerStatePath(scratchDir("rog_ws_rt"), 1);
    const WorkerResumeState s = sampleState();
    writeWorkerState(path, s);
    const WorkerResumeState r = readWorkerState(path);
    EXPECT_EQ(r.incarnation, s.incarnation);
    EXPECT_EQ(r.resume_token, s.resume_token);
    EXPECT_EQ(r.last_done_iter, s.last_done_iter);
    EXPECT_EQ(r.model, s.model);
}

TEST(WorkerState, EveryTruncationIsRejected)
{
    const std::string dir = scratchDir("rog_ws_trunc");
    const std::string good = dir + "/good.rogw";
    writeWorkerState(good, sampleState());
    const std::string bytes = slurp(good);
    const std::string torn = dir + "/torn.rogw";
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        spill(torn, bytes.substr(0, n));
        EXPECT_THROW(readWorkerState(torn), std::runtime_error)
            << "a " << n << "-byte prefix of " << bytes.size()
            << " was accepted";
    }
}

TEST(WorkerState, EveryFlippedByteIsRejected)
{
    const std::string dir = scratchDir("rog_ws_flip");
    const std::string good = dir + "/good.rogw";
    writeWorkerState(good, sampleState());
    const std::string bytes = slurp(good);
    const std::string bad = dir + "/bad.rogw";
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string flipped = bytes;
        flipped[i] = static_cast<char>(flipped[i] ^ (1u << (i % 8)));
        spill(bad, flipped);
        EXPECT_THROW(readWorkerState(bad), std::runtime_error)
            << "a flip at byte " << i << " was accepted";
    }
}

TEST(WorkerState, WriteIntoAMissingDirectoryIsReported)
{
    const std::string path = workerStatePath(
        testing::TempDir() + "rog_ws_no_such_dir/sub", 0);
    EXPECT_THROW(writeWorkerState(path, sampleState()),
                 std::runtime_error);
}

TEST(WorkerState, LoadWorkerResumeBumpsTheIncarnationAndDropsATornRecord)
{
    const std::string dir = scratchDir("rog_ws_resume");
    const WorkerResumeState s = sampleState();
    writeWorkerState(workerStatePath(dir, 0), s);
    const WorkerResumeState r = loadWorkerResume(dir, 0);
    EXPECT_EQ(r.incarnation, s.incarnation + 1);
    EXPECT_EQ(r.resume_token, s.resume_token);
    EXPECT_EQ(r.last_done_iter, s.last_done_iter);
    EXPECT_EQ(r.model, s.model);

    const std::string bytes = slurp(workerStatePath(dir, 0));
    spill(workerStatePath(dir, 0), bytes.substr(0, bytes.size() - 1));
    const WorkerResumeState fresh = loadWorkerResume(dir, 0);
    EXPECT_EQ(fresh.incarnation, 0u);
    EXPECT_EQ(fresh.resume_token, 0u);
    EXPECT_EQ(fresh.last_done_iter, 0);
    EXPECT_TRUE(fresh.model.empty());
}

/** Run one server and one worker over the DES fabric for @p iters
 *  iterations, the worker persisting into @p state_dir; returns the
 *  worker's run log. */
std::vector<NodeEvent>
runOneWorker(const std::string &state_dir, std::int64_t iters)
{
    sim::Simulation sim;
    net::session::DesFabricNet net(sim, 4.0e6,
                                   net::transport::TransportConfig{});
    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 1;
    NodeTrainConfig train = cfg.train;
    train.max_iters = iters;
    train.checkpoint_path.clear();
    train.worker_state_dir = state_dir;
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
    ServerNode server(net.node(net::session::kServerNode), *workload,
                      train);
    server.start();
    std::vector<NodeEvent> events;
    WorkerNode worker(net.node(net::session::workerNode(0)), *workload,
                      train, 0, WorkerResumeState{},
                      [&events](const std::string &line) {
                          const NodeEventParseResult p =
                              tryParseNodeEvent(line);
                          EXPECT_TRUE(p.ok()) << line << ": " << p.error;
                          events.push_back(p.event);
                      });
    worker.start("des", 0);
    sim.runUntil(60.0);
    EXPECT_TRUE(worker.done());
    return events;
}

TEST(WorkerState, WorkerNodeWritesOneRecordPerAppliedPull)
{
    const std::string dir = scratchDir("rog_ws_node");
    ::remove(workerStatePath(dir, 0).c_str());
    const std::vector<NodeEvent> events = runOneWorker(dir, 3);
    for (const NodeEvent &ev : events)
        EXPECT_NE(ev.kind, NodeEvent::Kind::StateWriteFailed);
    const WorkerResumeState r = readWorkerState(workerStatePath(dir, 0));
    EXPECT_EQ(r.last_done_iter, 3);
    EXPECT_NE(r.resume_token, 0u);
    NodeRunConfig cfg;
    cfg.workers = 1;
    auto model = makeNodeWorkload(cfg)->buildReplica();
    EXPECT_NO_THROW(nn::loadModelBytes(r.model, *model));
}

TEST(WorkerState, WorkerNodeReportsAFailedWrite)
{
    const std::vector<NodeEvent> events = runOneWorker(
        testing::TempDir() + "rog_ws_no_such_dir/sub", 2);
    std::vector<std::int64_t> failed_iters;
    for (const NodeEvent &ev : events)
        if (ev.kind == NodeEvent::Kind::StateWriteFailed) {
            failed_iters.push_back(ev.iter);
            EXPECT_NE(ev.why.find("durable write"), std::string::npos)
                << ev.why;
        }
    EXPECT_EQ(failed_iters, (std::vector<std::int64_t>{1, 2}));
}

} // namespace
} // namespace core
} // namespace rog
