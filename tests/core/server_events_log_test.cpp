/**
 * @file
 * server_events.log is streamed through the receiver's EventSink as
 * events happen, not collected in memory and written at the end. A
 * short real-socket run (server on this thread, two workers on their
 * own threads and poll loops, loopback UDP) must leave the same file
 * the collected write produced: one toString() line per receiver
 * event, in order, nothing else — and a log the chaos checker's
 * transport rule accepts (one Deliver per key, one push message per
 * worker-iteration, every unit of it applied).
 */
#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/node_runner.hpp"
#include "net/session/wire.hpp"
#include "net/transport/event_log.hpp"

namespace rog {
namespace core {
namespace {

using net::transport::TransportEvent;

TEST(ServerEventsLog, StreamedLogIsOneRenderedLinePerReceiverEvent)
{
    char dir_tmpl[] = "/tmp/rog_server_events_XXXXXX";
    const char *dir = ::mkdtemp(dir_tmpl);
    ASSERT_NE(dir, nullptr);

    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 2;
    cfg.artifact_dir = dir;
    cfg.train.max_iters = 3;
    cfg.run_timeout_s = 30.0;

    std::vector<std::thread> workers;
    std::vector<WorkerRunResult> worker_res(cfg.workers);
    const ServerRunResult res =
        runServerNode(cfg, [&](std::uint16_t port) {
            for (std::size_t w = 0; w < cfg.workers; ++w)
                workers.emplace_back([&, w, port] {
                    worker_res[w] =
                        runWorkerNode(cfg, w, "127.0.0.1", port);
                });
        });
    for (std::thread &t : workers)
        t.join();
    ASSERT_TRUE(res.done);
    for (const WorkerRunResult &w : worker_res)
        EXPECT_TRUE(w.done);

    std::ifstream is(std::string(dir) + "/server_events.log");
    std::stringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    const net::transport::LogParseResult parsed =
        net::transport::tryParseLog(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_FALSE(parsed.events.empty());

    std::string rendered;
    for (const TransportEvent &ev : parsed.events)
        rendered += net::transport::toString(ev) + '\n';
    EXPECT_EQ(text, rendered);

    std::set<std::string> delivered;
    std::size_t push_delivers = 0;
    for (const TransportEvent &ev : parsed.events) {
        if (ev.kind != TransportEvent::Kind::Deliver)
            continue;
        std::ostringstream key;
        key << ev.key.worker << ':' << ev.key.version << ':' << ev.key.row
            << ':' << ev.key.pull;
        EXPECT_TRUE(delivered.insert(key.str()).second)
            << "delivered twice: " << key.str();
        if (ev.key.row < net::session::kRowControlBase)
            ++push_delivers;
    }
    // One push message per worker-iteration, every unit applied from
    // it exactly once.
    const std::size_t units =
        makeNodeWorkload(cfg)->buildReplica()->rowCount();
    EXPECT_EQ(push_delivers,
              cfg.workers * static_cast<std::size_t>(cfg.train.max_iters));
    EXPECT_EQ(res.applied_pushes, push_delivers * units);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace core
} // namespace rog
