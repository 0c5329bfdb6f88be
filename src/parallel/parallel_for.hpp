/**
 * @file
 * Deterministic data-parallel loops over the global thread pool.
 *
 * The determinism contract (DESIGN.md Sec. 9): the *result* of every
 * parallel region is a pure function of the inputs and the chunking
 * grain — never of ROG_THREADS, scheduling order, or core count.
 *
 *  - Chunk boundaries are fixed by (range, grain) alone. A range of n
 *    elements always splits into ceil(n / grain) chunks at the same
 *    offsets, whether 1 or 64 threads execute them.
 *  - parallelFor chunks write disjoint output; any interleaving of
 *    disjoint writes yields the same memory image.
 *  - parallelReduce computes one partial per fixed chunk and combines
 *    the partials in a fixed left-to-right binary tree over the chunk
 *    index — the float rounding sequence is identical for every thread
 *    count, so reductions are *bitwise* reproducible.
 *
 * On a one-thread pool both loops run inline: the same fixed chunks,
 * in ascending order, with the body called directly (no
 * std::function, no ThreadPool::run), so ROG_THREADS=1 and
 * ROG_THREADS=64 are byte-identical.
 */
#ifndef ROG_PARALLEL_PARALLEL_FOR_HPP
#define ROG_PARALLEL_PARALLEL_FOR_HPP

#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace rog {
namespace parallel {

/** Default elements-per-chunk for elementwise loops: small enough to
 *  load-balance a big tensor, large enough to amortize dispatch. */
inline constexpr std::size_t kDefaultGrain = 8192;

/** Number of fixed chunks for a range of @p n with grain @p grain. */
inline std::size_t
chunkCount(std::size_t n, std::size_t grain)
{
    if (n == 0)
        return 0;
    const std::size_t g = grain == 0 ? 1 : grain;
    return (n + g - 1) / g;
}

/** End of fixed chunk @p c of [begin, end) at grain @p g. */
inline std::size_t
chunkEnd(std::size_t begin, std::size_t end, std::size_t g, std::size_t c)
{
    const std::size_t lo = begin + c * g;
    return end - lo > g ? lo + g : end;
}

/**
 * Run body(chunk_begin, chunk_end) over [begin, end) split into fixed
 * chunks of @p grain elements (last chunk ragged). Chunks execute
 * concurrently on @p pool (default: the global ROG_THREADS pool); the
 * body must write disjoint state per chunk.
 */
template <typename Body>
void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            const Body &body, ThreadPool &pool = ThreadPool::global())
{
    if (end <= begin)
        return;
    const std::size_t n = end - begin;
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t chunks = chunkCount(n, g);
    const auto task = [&](std::size_t c) {
        body(begin + c * g, chunkEnd(begin, end, g, c));
    };
    if (chunks == 1 || pool.threads() <= 1) {
        for (std::size_t c = 0; c < chunks; ++c)
            task(c);
        return;
    }
    pool.run(chunks, task);
}

/**
 * Reduce [begin, end) deterministically: partial = mapChunk(lo, hi)
 * per fixed chunk, then fold the partials with combine(a, b) in a
 * left-to-right binary tree over chunk order. Returns identity for an
 * empty range. Bitwise independent of thread count.
 */
template <typename T, typename MapChunk, typename Combine>
T
parallelReduce(std::size_t begin, std::size_t end, std::size_t grain,
               T identity, const MapChunk &mapChunk,
               const Combine &combine,
               ThreadPool &pool = ThreadPool::global())
{
    if (end <= begin)
        return identity;
    const std::size_t n = end - begin;
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t chunks = chunkCount(n, g);
    if (chunks == 1)
        return mapChunk(begin, end);

    std::vector<T> partials(chunks, identity);
    const auto task = [&](std::size_t c) {
        partials[c] = mapChunk(begin + c * g, chunkEnd(begin, end, g, c));
    };
    if (pool.threads() <= 1) {
        for (std::size_t c = 0; c < chunks; ++c)
            task(c);
    } else {
        pool.run(chunks, task);
    }

    // Ordered pairwise tree: (p0+p1), (p2+p3), ... then recurse. The
    // association depends only on `chunks`, so the float rounding
    // sequence is fixed for a given input size and grain.
    std::size_t width = chunks;
    while (width > 1) {
        const std::size_t half = (width + 1) / 2;
        for (std::size_t i = 0; i + half < width; ++i)
            partials[i] = combine(partials[i], partials[i + half]);
        width = half;
    }
    return partials[0];
}

} // namespace parallel
} // namespace rog

#endif // ROG_PARALLEL_PARALLEL_FOR_HPP
