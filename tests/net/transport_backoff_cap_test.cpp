/**
 * @file
 * Regression test for the retry backoff exponent cap: during a long
 * partition with unbounded attempts, the doubling exponent saturates
 * at kMaxBackoffExponent instead of growing without limit, and the
 * retry delay pins at min(backoff_max_s, base * 2^cap).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "net/transport/backend.hpp"
#include "net/transport/reliable_link.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

/**
 * A wire that eats every frame: sendFrame queues a completed=false
 * verdict (total loss), delivered on the next step() so the protocol
 * core never re-enters itself. Timers run on a manual virtual clock.
 */
class BlackholeBackend : public Backend
{
  public:
    double now() const override { return now_; }

    TimerId
    after(double delay_s, std::function<void()> fire) override
    {
        const TimerId id = next_timer_++;
        timers_[id] = {now_ + delay_s, std::move(fire)};
        return id;
    }

    void cancelTimer(TimerId id) override { timers_.erase(id); }

    std::uint64_t
    openSend(LinkId, const MessageKey &) override
    {
        return next_send_++;
    }

    void
    sendFrame(std::uint64_t, const FrameHeader &,
              std::span<const std::uint8_t>, double, VerdictCallback done,
              std::function<void()>) override
    {
        pending_.push_back(std::move(done));
    }

    void closeSend(std::uint64_t) override {}
    void setReceiverEventSink(EventSink) override {}

    /** Resolve one lost frame or fire the next due timer. */
    bool
    step()
    {
        if (!pending_.empty()) {
            VerdictCallback cb = std::move(pending_.front());
            pending_.pop_front();
            FrameVerdict v;
            v.completed = false;
            cb(v);
            return true;
        }
        if (timers_.empty())
            return false;
        auto due = timers_.begin();
        for (auto it = timers_.begin(); it != timers_.end(); ++it)
            if (it->second.deadline < due->second.deadline)
                due = it;
        now_ = std::max(now_, due->second.deadline);
        auto fn = std::move(due->second.fn);
        timers_.erase(due);
        fn();
        return true;
    }

  private:
    struct Timer
    {
        double deadline = 0.0;
        std::function<void()> fn;
    };

    double now_ = 0.0;
    std::deque<VerdictCallback> pending_;
    std::map<TimerId, Timer> timers_;
    TimerId next_timer_ = 1;
    std::uint64_t next_send_ = 1;
};

TEST(TransportBackoffCap, ExponentSaturatesAtTheBoundary)
{
    BlackholeBackend wire;
    TransportConfig cfg;
    cfg.chunk_bytes = 256;
    cfg.max_attempts_per_chunk = 0; // unbounded: ride out the partition.
    cfg.backoff_base_s = 1e-6;
    cfg.backoff_max_s = 1e18; // so the delay exposes the raw 2^exp.
    cfg.jitter_frac = 0.0;    // exact delays for the boundary check.
    std::vector<TransportEvent> events;
    ReliableLink link(wire, cfg, [&events](const TransportEvent &ev) {
        events.push_back(ev);
    });

    bool finished = false;
    link.startSend(
        1, MessageKey{1, 1, 0, false}, std::vector<std::uint8_t>(64),
        kNoDeadline,
        [&](SendResult) { finished = true; });

    // Enough lost-frame/retry cycles to blow well past the cap were it
    // unbounded (each cycle = one verdict + one backoff timer).
    const std::size_t cycles = kMaxBackoffExponent + 12;
    for (std::size_t i = 0; i < 2 * cycles + 1 && !finished; ++i)
        ASSERT_TRUE(wire.step());
    ASSERT_FALSE(finished); // unbounded retries: still trying.

    std::vector<double> exps;
    std::vector<double> delays;
    for (const auto &ev : events) {
        if (ev.kind != TransportEvent::Kind::Backoff)
            continue;
        exps.push_back(ev.b);
        delays.push_back(ev.a);
    }
    ASSERT_GT(exps.size(), kMaxBackoffExponent + 4);

    // Exponents climb 0,1,2,... then pin at the cap.
    for (std::size_t i = 0; i < exps.size(); ++i) {
        const double want = std::min<double>(
            static_cast<double>(i), static_cast<double>(kMaxBackoffExponent));
        EXPECT_EQ(exps[i], want) << "backoff event " << i;
    }
    EXPECT_EQ(exps.back(), static_cast<double>(kMaxBackoffExponent));

    // At and past the boundary the delay is exactly base * 2^cap —
    // finite, representable, and constant from there on.
    const double pinned =
        cfg.backoff_base_s *
        std::pow(2.0, static_cast<double>(kMaxBackoffExponent));
    for (std::size_t i = kMaxBackoffExponent; i < delays.size(); ++i) {
        EXPECT_TRUE(std::isfinite(delays[i]));
        EXPECT_DOUBLE_EQ(delays[i], pinned) << "delay " << i;
    }
}

TEST(TransportBackoffCap, MaxDelayStillRulesWhenSmaller)
{
    // The usual configuration: backoff_max_s far below base * 2^cap.
    // The cap must not disturb the existing saturation at max.
    BlackholeBackend wire;
    TransportConfig cfg;
    cfg.chunk_bytes = 256;
    cfg.max_attempts_per_chunk = 0;
    cfg.backoff_base_s = 0.05;
    cfg.backoff_max_s = 2.0;
    cfg.jitter_frac = 0.0;
    std::vector<TransportEvent> events;
    ReliableLink link(wire, cfg, [&events](const TransportEvent &ev) {
        events.push_back(ev);
    });

    link.startSend(1, MessageKey{1, 1, 0, false},
                   std::vector<std::uint8_t>(64), kNoDeadline,
                   [](SendResult) {});
    for (std::size_t i = 0; i < 2 * (kMaxBackoffExponent + 8); ++i)
        ASSERT_TRUE(wire.step());

    double last_delay = 0.0;
    double last_exp = 0.0;
    for (const auto &ev : events) {
        if (ev.kind != TransportEvent::Kind::Backoff)
            continue;
        EXPECT_LE(ev.a, cfg.backoff_max_s);
        last_delay = ev.a;
        last_exp = ev.b;
    }
    EXPECT_DOUBLE_EQ(last_delay, cfg.backoff_max_s);
    EXPECT_EQ(last_exp, static_cast<double>(kMaxBackoffExponent));
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
