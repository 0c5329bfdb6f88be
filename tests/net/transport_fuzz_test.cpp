/**
 * @file
 * Property/fuzz harness for the reliable transport: 1000 seeded random
 * fault schedules — blackouts, bandwidth collapses, truncations,
 * forced timeouts, payload corruption and duplicate delivery — against
 * random message workloads of keyed test bytes. Under every schedule
 * the transport must fire every completion callback exactly once,
 * deliver (or verifiably fail) every message, keep the
 * InvariantChecker's transport invariants clean (apply-once under
 * duplication, no corrupted chunk accepted, resume never past the
 * request), and replay byte-identically from the same seed. A further
 * seed range re-sends delivered keys: each resend must be answered as a
 * duplicate, never handed up a second time.
 */
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_checker.hpp"
#include "net/trace_generator.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/reliable_link.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

constexpr std::size_t kLinks = 2;
constexpr std::size_t kMessages = 8;

fault::FaultPlanConfig
fuzzFaultConfig()
{
    fault::FaultPlanConfig cfg;
    cfg.links = kLinks;
    cfg.workers = 0; // transport-level only: no churn.
    cfg.horizon_s = 40.0;
    cfg.max_corruptions_per_link = 2;
    cfg.max_duplicates_per_link = 2;
    return cfg;
}

struct FuzzOutcome
{
    std::vector<SendResult> results;
    std::vector<int> callback_count;
    std::vector<SendResult> resends;
    std::map<MessageKey, std::size_t> handed_up; //!< payloads per key.
    std::map<MessageKey, std::size_t> deliver_events;
    std::size_t bad_payloads = 0;
    TransportTotals totals;
    std::size_t violations = 0;
    std::size_t checks = 0;
    std::string violation_report;
    std::string log_dump;
};

/**
 * One seeded schedule. With @p resend, a delivered message is sent
 * again under its key with probability 1/2 (drawn from a separate
 * stream, so the schedule itself is the one the seed always made).
 */
FuzzOutcome
runTransportFuzz(std::uint64_t seed, bool resend = false)
{
    Rng rng(seed);
    const fault::FaultPlan plan =
        fault::FaultPlan::random(seed, fuzzFaultConfig());
    plan.validate();

    sim::Simulation sim;
    fault::FaultInjector injector(sim, plan);
    std::vector<BandwidthTrace> traces;
    for (std::size_t l = 0; l < kLinks; ++l) {
        const auto base = generateTrace(
            TraceModel::outdoor(rng.uniform(5e3, 40e3)), 60.0,
            seed * 100 + l);
        traces.push_back(injector.perturbTrace(base, l, 200.0));
    }

    TransportConfig cfg;
    cfg.chunk_bytes = static_cast<std::size_t>(rng.uniform(500.0, 5000.0));
    cfg.max_attempts_per_chunk = 2 + rng.uniformInt(6);
    cfg.jitter_seed = seed;

    FuzzOutcome out;
    out.results.resize(kMessages);
    out.callback_count.assign(kMessages, 0);
    {
        Channel ch(sim, std::move(traces));
        injector.attach(ch);
        fault::InvariantChecker checker;
        std::ostringstream log;
        DesBackend backend(
            sim, ch,
            [&out, &cfg](const MessageKey &key,
                         std::vector<std::uint8_t> &&bytes) {
                ++out.handed_up[key];
                if (bytes != synthesizeMessage(key, bytes.size(),
                                               cfg.chunk_bytes))
                    ++out.bad_payloads;
            });
        ReliableLink link(backend, cfg, [&](const TransportEvent &ev) {
            checker.onTransportEvent(ev);
            log << toString(ev) << '\n';
            if (ev.kind == TransportEvent::Kind::Deliver)
                ++out.deliver_events[ev.key];
        });
        Rng resend_rng(seed ^ 0x5e5e5e5eull);

        for (std::size_t i = 0; i < kMessages; ++i) {
            const double start = rng.uniform(0.0, 30.0);
            const auto l = rng.uniformInt(kLinks);
            const auto bytes =
                static_cast<std::size_t>(rng.uniform(100.0, 20e3));
            const bool timed = rng.uniform() < 0.3;
            const double deadline =
                timed ? start + rng.uniform(0.5, 5.0) : kNoDeadline;
            MessageKey key;
            key.worker = static_cast<std::uint16_t>(l);
            key.version = static_cast<std::int64_t>(i);
            key.row = static_cast<std::uint32_t>(rng.uniformInt(64));
            key.pull = rng.uniform() < 0.5;
            sim.after(start, [&link, &out, &cfg, &resend_rng, resend, i, l,
                              key, bytes, deadline] {
                const auto payload =
                    synthesizeMessage(key, bytes, cfg.chunk_bytes);
                link.startSend(
                    l, key, payload, deadline,
                    [&link, &out, &resend_rng, resend, i, l, key,
                     payload](SendResult r) {
                        out.results[i] = r;
                        ++out.callback_count[i];
                        if (resend && r.delivered &&
                            resend_rng.uniform() < 0.5)
                            link.startSend(l, key, payload, kNoDeadline,
                                           [&out](SendResult again) {
                                               out.resends.push_back(again);
                                           });
                    });
            });
        }
        sim.run();
        out.totals = link.totals();
        out.violations = checker.violationCount();
        out.checks = checker.checksRun();
        out.violation_report = checker.report();
        out.log_dump = log.str();
    }
    return out;
}

class TransportFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

// 8 params x 125 seeds each = 1000 random fault schedules.
TEST_P(TransportFuzz, InvariantsHoldUnderRandomFaultSchedules)
{
    for (std::uint64_t k = 0; k < 125; ++k) {
        const std::uint64_t seed = GetParam() * 1000 + k;
        const auto out = runTransportFuzz(seed);

        // Zero invariant violations, and the checker actually checked.
        ASSERT_EQ(out.violations, 0u)
            << "seed " << seed << "\n" << out.violation_report;
        EXPECT_GT(out.checks, 0u) << "seed " << seed;

        std::uint64_t sent = 0, retrans = 0;
        for (std::size_t i = 0; i < out.results.size(); ++i) {
            const auto &r = out.results[i];
            // Exactly one completion per message, fault or not.
            ASSERT_EQ(out.callback_count[i], 1)
                << "seed " << seed << " message " << i;
            EXPECT_GT(r.chunks, 0u) << "seed " << seed;
            EXPECT_GE(r.attempts, r.chunks * (r.delivered ? 1u : 0u))
                << "seed " << seed;
            EXPECT_EQ(r.retries + r.chunks >= r.attempts, true)
                << "seed " << seed;
            // Retransmission is a subset of what was sent.
            EXPECT_LE(r.retransmitted_bytes, r.bytes_sent)
                << "seed " << seed;
            EXPECT_GE(r.backoff_s, 0.0) << "seed " << seed;
            EXPECT_GE(r.elapsed_s, 0.0) << "seed " << seed;
            // Delivered and expired are mutually exclusive outcomes.
            EXPECT_FALSE(r.delivered && r.deadline_expired)
                << "seed " << seed;
            sent += r.bytes_sent;
            retrans += r.retransmitted_bytes;
        }
        // Per-message results reconcile with the link's ledger.
        EXPECT_EQ(out.totals.sends, kMessages) << "seed " << seed;
        EXPECT_EQ(out.totals.delivered + out.totals.failed, kMessages)
            << "seed " << seed;
        EXPECT_EQ(out.totals.bytes_sent, sent) << "seed " << seed;
        EXPECT_EQ(out.totals.retransmitted_bytes, retrans)
            << "seed " << seed;
    }
}

TEST_P(TransportFuzz, ReplayIsByteIdentical)
{
    // The transport's structured event log — every attempt, resume,
    // backoff delay, accept, and verdict — must be byte-identical when
    // the same seed is replayed.
    for (std::uint64_t k = 0; k < 25; ++k) {
        const std::uint64_t seed = GetParam() * 7000 + k;
        const auto a = runTransportFuzz(seed);
        const auto b = runTransportFuzz(seed);
        ASSERT_FALSE(a.log_dump.empty()) << "seed " << seed;
        ASSERT_EQ(a.log_dump, b.log_dump) << "seed " << seed;
        EXPECT_EQ(a.totals.attempts, b.totals.attempts)
            << "seed " << seed;
        EXPECT_EQ(a.totals.bytes_sent, b.totals.bytes_sent)
            << "seed " << seed;
        EXPECT_DOUBLE_EQ(a.totals.backoff_s, b.totals.backoff_s)
            << "seed " << seed;
    }
}

TEST_P(TransportFuzz, ResentDeliveredKeysAreHandedUpOnce)
{
    // A seed range of its own: the schedules above stay as they are.
    std::size_t resent = 0;
    for (std::uint64_t k = 0; k < 25; ++k) {
        const std::uint64_t seed = 100000 + GetParam() * 1000 + k;
        const auto out = runTransportFuzz(seed, /*resend=*/true);
        ASSERT_EQ(out.violations, 0u)
            << "seed " << seed << "\n" << out.violation_report;

        std::size_t delivered = 0;
        for (std::size_t i = 0; i < out.results.size(); ++i) {
            ASSERT_EQ(out.callback_count[i], 1)
                << "seed " << seed << " message " << i;
            delivered += out.results[i].delivered ? 1 : 0;
        }
        // A resend reaches a receiver that delivered the key: it is
        // answered as a duplicate chunk by chunk, or fails under
        // faults, and never delivers again.
        for (const SendResult &r : out.resends)
            if (r.delivered)
                EXPECT_GE(r.duplicate_chunks, r.chunks)
                    << "seed " << seed;
        EXPECT_EQ(out.deliver_events.size(), delivered) << "seed " << seed;
        for (const auto &[key, n] : out.deliver_events)
            EXPECT_EQ(n, 1u) << "seed " << seed << " version "
                             << key.version;
        EXPECT_EQ(out.handed_up, out.deliver_events) << "seed " << seed;
        EXPECT_EQ(out.bad_payloads, 0u) << "seed " << seed;
        resent += out.resends.size();
    }
    EXPECT_GT(resent, 25u); // the resend path really ran.
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
