/**
 * @file
 * Thread pool and deterministic parallel-loop tests.
 *
 * The load-bearing property is the determinism contract of
 * parallel/parallel_for.hpp: every parallelFor/parallelReduce result
 * is a pure function of (inputs, grain) — bitwise independent of how
 * many threads execute the chunks.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace rog;
using parallel::chunkCount;
using parallel::parallelFor;
using parallel::parallelReduce;
using parallel::ThreadPool;

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce)
{
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        constexpr std::size_t kTasks = 257;
        std::vector<std::atomic<int>> hits(kTasks);
        pool.run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < kTasks; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
}

TEST(ThreadPoolTest, ZeroTasksIsANoop)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.run(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 100; ++round)
        pool.run(16, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 1600u);
}

TEST(ThreadPoolTest, NestedRegionsRunInline)
{
    // On the pooled path (4) and the one-thread inline path (1).
    for (std::size_t threads : {4u, 1u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(8 * 8);
        std::atomic<int> foreign{0};
        pool.run(8, [&](std::size_t outer) {
            // A nested region on a pool thread must not deadlock; it
            // runs the inner tasks inline on the calling thread.
            const auto outer_thread = std::this_thread::get_id();
            parallelFor(
                0, 8, 1,
                [&](std::size_t lo, std::size_t hi) {
                    if (std::this_thread::get_id() != outer_thread)
                        foreign.fetch_add(1);
                    for (std::size_t inner = lo; inner < hi; ++inner)
                        hits[outer * 8 + inner].fetch_add(1);
                },
                pool);
        });
        EXPECT_EQ(foreign.load(), 0) << "threads=" << threads;
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "threads=" << threads;
    }
}

TEST(ThreadPoolTest, ResolveThreadsDefaultsToOne)
{
    // The test runner does not set ROG_THREADS for this binary, and
    // setThreads has not been called, so the resolved count is 1.
    if (std::getenv("ROG_THREADS") == nullptr)
        EXPECT_EQ(ThreadPool::resolveThreads(), 1u);
}

TEST(ParallelForTest, ChunkCountMatchesCeilDiv)
{
    EXPECT_EQ(chunkCount(0, 8), 0u);
    EXPECT_EQ(chunkCount(1, 8), 1u);
    EXPECT_EQ(chunkCount(8, 8), 1u);
    EXPECT_EQ(chunkCount(9, 8), 2u);
    EXPECT_EQ(chunkCount(64, 8), 8u);
    EXPECT_EQ(chunkCount(5, 0), 5u); // grain 0 clamps to 1.
}

TEST(ParallelForTest, CoversRangeExactlyOnceForAnyThreadCount)
{
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        constexpr std::size_t kN = 1003; // not a multiple of the grain.
        std::vector<int> hits(kN, 0);
        parallelFor(
            0, kN, 64,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    ++hits[i]; // disjoint chunks: no synchronization.
            },
            pool);
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i], 1) << "element " << i;
    }
}

/** The (lo, hi) chunks a parallel region ran, in the order they
 *  started, each tagged with its thread. */
struct ChunkLog
{
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::vector<std::thread::id> threads;

    void
    add(std::size_t lo, std::size_t hi)
    {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
        threads.push_back(std::this_thread::get_id());
    }
};

TEST(ParallelForTest, OneThreadPoolRunsTheSameChunksInlineInOrder)
{
    auto runWith = [](ThreadPool &pool, ChunkLog &log) {
        parallelFor(
            3, 1003, 64, [&](std::size_t lo, std::size_t hi) { log.add(lo, hi); },
            pool);
    };
    ThreadPool one(1);
    ThreadPool four(4);
    ChunkLog inline_log, pooled_log;
    runWith(one, inline_log);
    runWith(four, pooled_log);

    ASSERT_EQ(inline_log.chunks.size(), chunkCount(1000, 64));
    EXPECT_TRUE(std::is_sorted(inline_log.chunks.begin(),
                               inline_log.chunks.end()));
    for (const auto &t : inline_log.threads)
        EXPECT_EQ(t, std::this_thread::get_id());
    EXPECT_EQ(inline_log.chunks.front().first, 3u);
    EXPECT_EQ(inline_log.chunks.back().second, 1003u);

    std::sort(pooled_log.chunks.begin(), pooled_log.chunks.end());
    EXPECT_EQ(inline_log.chunks, pooled_log.chunks);
}

TEST(ParallelForTest, EmptyRangeDoesNothing)
{
    ThreadPool pool(4);
    bool ran = false;
    parallelFor(
        5, 5, 8, [&](std::size_t, std::size_t) { ran = true; }, pool);
    EXPECT_FALSE(ran);
}

/**
 * The headline property: a float sum over fixed chunks plus the
 * ordered pairwise combine tree yields the *bitwise identical* result
 * for 1, 2, 4 and 8 threads, on sizes that are and are not multiples
 * of the grain.
 */
TEST(ParallelReduceTest, BitwiseIdenticalAcrossThreadCounts)
{
    Rng rng(99);
    for (std::size_t n : {1000u, 8192u, 100001u}) {
        std::vector<float> v(n);
        for (auto &x : v)
            x = static_cast<float>(rng.gaussian());

        auto reduceWith = [&](std::size_t threads) {
            ThreadPool pool(threads);
            ChunkLog log;
            const float sum = parallelReduce(
                0, n, 4096, 0.0f,
                [&](std::size_t lo, std::size_t hi) {
                    log.add(lo, hi);
                    float s = 0.0f;
                    for (std::size_t i = lo; i < hi; ++i)
                        s += v[i];
                    return s;
                },
                [](float a, float b) { return a + b; }, pool);
            EXPECT_EQ(log.chunks.size(), chunkCount(n, 4096));
            if (threads == 1) {
                // The inline path: ascending chunks on the caller.
                EXPECT_TRUE(std::is_sorted(log.chunks.begin(),
                                           log.chunks.end()));
                for (const auto &t : log.threads)
                    EXPECT_EQ(t, std::this_thread::get_id());
            }
            return sum;
        };

        const float base = reduceWith(1);
        for (std::size_t threads : {2u, 4u, 8u}) {
            const float got = reduceWith(threads);
            std::uint32_t base_bits, got_bits;
            std::memcpy(&base_bits, &base, sizeof base_bits);
            std::memcpy(&got_bits, &got, sizeof got_bits);
            EXPECT_EQ(base_bits, got_bits)
                << "n=" << n << " threads=" << threads;
        }
    }
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity)
{
    ThreadPool pool(2);
    const double r = parallelReduce(
        3, 3, 8, -1.5, [](std::size_t, std::size_t) { return 0.0; },
        [](double a, double b) { return a + b; }, pool);
    EXPECT_EQ(r, -1.5);
}

TEST(ParallelReduceTest, SingleChunkMatchesSequential)
{
    ThreadPool pool(8);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    const long r = parallelReduce(
        0, v.size(), 1000, 0L,
        [&](std::size_t lo, std::size_t hi) {
            long s = 0;
            for (std::size_t i = lo; i < hi; ++i)
                s += v[i];
            return s;
        },
        [](long a, long b) { return a + b; }, pool);
    EXPECT_EQ(r, 4950);
}

/** The combine tree must see partials in chunk order, not completion
 *  order: reduce with a non-commutative combine and check the exact
 *  sequence-dependent result is stable across thread counts. */
TEST(ParallelReduceTest, CombineTreeOrderIsFixed)
{
    const std::size_t n = 64;
    auto reduceWith = [&](std::size_t threads) {
        ThreadPool pool(threads);
        // Partial per chunk = first index of the chunk; combine is
        // string-like mixing that is order sensitive.
        return parallelReduce(
            0, n, 4, 0.0,
            [](std::size_t lo, std::size_t) {
                return static_cast<double>(lo);
            },
            [](double a, double b) { return a * 1.01 + b * 0.99; },
            pool);
    };
    const double base = reduceWith(1);
    for (std::size_t threads : {2u, 4u, 8u})
        EXPECT_EQ(base, reduceWith(threads)) << "threads=" << threads;
}

} // namespace
