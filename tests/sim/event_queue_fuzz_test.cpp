/**
 * @file
 * Differential fuzz of the heap event core against the std::map oracle.
 *
 * Drives both queues with the same random trace of schedule / cancel /
 * step operations — including equal-timestamp bursts and cancellation
 * of already-fired handles — and asserts the observable firing and drop
 * sequences are identical.  This is the verification the heap rewrite
 * leans on: the (time, insertion-seq) order of the seed std::map
 * implementation is the contract, the 4-ary heap is just a faster way
 * to produce it.
 */
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "oracles/event_queue_ref.hpp"

namespace {

using rog::Rng;
using rog::sim::EventId;
using rog::sim::EventQueue;
using rog::sim::MapEventId;
using rog::sim::MapEventQueue;

/**
 * One log shared by both queues under test.  Events append tagged
 * strings ("F:<id>" on fire, "D:<id>" on drop); after the trace the two
 * logs must match element for element.
 */
struct TraceLog
{
    std::vector<std::string> entries;

    void fire(std::uint64_t id) { entries.push_back("F:" + std::to_string(id)); }
    void drop(std::uint64_t id) { entries.push_back("D:" + std::to_string(id)); }
};

/** A live handle pair: the same logical event on both queues. */
struct Handle
{
    std::uint64_t logical_id;
    EventId heap_id;
    MapEventId map_id;
};

struct DifferentialDriver
{
    EventQueue heap;
    MapEventQueue map;
    TraceLog heap_log;
    TraceLog map_log;
    std::vector<Handle> handles; // includes stale (already fired) ones
    std::uint64_t next_logical = 0;

    void
    schedule(double time)
    {
        const std::uint64_t id = next_logical++;
        TraceLog *hl = &heap_log;
        TraceLog *ml = &map_log;
        Handle h;
        h.logical_id = id;
        h.heap_id = heap.schedule(
            time, [hl, id] { hl->fire(id); }, [hl, id] { hl->drop(id); });
        h.map_id = map.schedule(
            time, [ml, id] { ml->fire(id); }, [ml, id] { ml->drop(id); });
        handles.push_back(h);
    }

    /** Cancels the same logical event on both queues (may be stale). */
    void
    cancel(std::size_t index)
    {
        heap.cancel(handles[index].heap_id);
        map.cancel(handles[index].map_id);
    }

    void
    step()
    {
        const bool a = heap.step();
        const bool b = map.step();
        ASSERT_EQ(a, b) << "step() progress diverged";
    }

    void
    checkInvariants()
    {
        ASSERT_EQ(heap.size(), map.size());
        ASSERT_EQ(heap.empty(), map.empty());
        ASSERT_DOUBLE_EQ(heap.now(), map.now());
        if (!heap.empty()) {
            ASSERT_DOUBLE_EQ(heap.peekTime(), map.peekTime());
        }
    }
};

TEST(EventQueueFuzz, HundredThousandOpsMatchOracle)
{
    Rng rng(0xF00DF00Du);
    DifferentialDriver d;

    constexpr int kOps = 100000;
    for (int op = 0; op < kOps; ++op) {
        const double roll = rng.uniform();
        if (roll < 0.45) {
            // Coarse quantisation forces frequent equal-timestamp
            // collisions so insertion-seq tie-breaking is exercised.
            const double dt =
                static_cast<double>(rng.uniformInt(16)) * 0.25;
            d.schedule(d.heap.now() + dt);
        } else if (roll < 0.65 && !d.handles.empty()) {
            // Cancel a random handle — live or stale.  Stale cancels
            // must be no-ops on both queues (generation check on the
            // heap, map miss on the oracle).
            const std::size_t i = static_cast<std::size_t>(
                rng.uniformInt(d.handles.size()));
            d.cancel(i);
        } else {
            d.step();
        }
        if (op % 64 == 0)
            d.checkInvariants();
    }

    // Drain both queues fully, then compare the complete firing logs.
    while (!d.heap.empty() || !d.map.empty())
        d.step();
    d.checkInvariants();
    ASSERT_EQ(d.heap_log.entries, d.map_log.entries);
    ASSERT_GT(d.heap_log.entries.size(), 10000u);
}

TEST(EventQueueFuzz, EqualTimestampBurstsFireInInsertionOrder)
{
    Rng rng(0xB00B1E5u);
    DifferentialDriver d;

    // Several bursts of events all at the exact same timestamp, with
    // random cancellations interleaved mid-burst.
    for (int burst = 0; burst < 50; ++burst) {
        const double t = d.heap.now() + 1.0;
        const int n = 1 + static_cast<int>(rng.uniformInt(40));
        const std::size_t first = d.handles.size();
        for (int i = 0; i < n; ++i)
            d.schedule(t);
        // Cancel roughly a quarter of this burst while pending.
        for (int i = 0; i < n / 4; ++i) {
            const std::size_t idx =
                first + static_cast<std::size_t>(rng.uniformInt(n));
            d.cancel(idx);
        }
        while (!d.heap.empty())
            d.step();
        d.checkInvariants();
    }
    ASSERT_EQ(d.heap_log.entries, d.map_log.entries);
}

TEST(EventQueueFuzz, DestructionDropsPendingInReverseKeyOrder)
{
    TraceLog heap_log;
    TraceLog map_log;
    {
        EventQueue heap;
        MapEventQueue map;
        Rng rng(0xDEADu);
        // Unsorted insertion times, several duplicates.
        for (std::uint64_t id = 0; id < 200; ++id) {
            const double t =
                static_cast<double>(rng.uniformInt(32)) * 0.5;
            TraceLog *hl = &heap_log;
            TraceLog *ml = &map_log;
            heap.schedule(t, [] {}, [hl, id] { hl->drop(id); });
            map.schedule(t, [] {}, [ml, id] { ml->drop(id); });
        }
        // Fire a prefix so now() has advanced, leaving a mixed tail.
        for (int i = 0; i < 60; ++i) {
            heap.step();
            map.step();
        }
    } // both destructors run here
    ASSERT_EQ(heap_log.entries.size(), 140u);
    ASSERT_EQ(heap_log.entries, map_log.entries);
}

TEST(EventQueueFuzz, CancelledHandleStaysDeadAfterSlotReuse)
{
    EventQueue q;
    int fired = 0;
    int dropped = 0;
    const EventId a = q.schedule(1.0, [&] { ++fired; },
                                 [&] { ++dropped; });
    q.cancel(a);
    EXPECT_EQ(dropped, 1);
    // The arena slot freed by `a` is recycled by the next schedule.
    const EventId b = q.schedule(2.0, [&] { ++fired; });
    // Cancelling the stale handle again must not kill `b`.
    q.cancel(a);
    q.cancel(a);
    EXPECT_EQ(dropped, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
    (void)b;
}

} // namespace
