/**
 * @file
 * Fused one-bit transcode kernel vs the seed's multi-pass reference.
 *
 * The contract is bitwise: the fused sweep must produce exactly the
 * out / residual / packed bytes of the reference pipeline, and the
 * OneBitCodec built on it must produce timelines independent of the
 * worker thread count (the determinism contract every engine test
 * leans on). Thread sweeps use locally constructed pools — the global
 * pool's size is fixed at first use.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "compress/packbits.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace rog {
namespace compress {
namespace {

/** Bitwise float-vector equality (EXPECT_EQ would compare by value
 *  and treat -0.0f == 0.0f; the contract here is representation). */
void
expectBitwiseEq(const std::vector<float> &got,
                const std::vector<float> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        std::uint32_t g, w;
        std::memcpy(&g, &got[i], 4);
        std::memcpy(&w, &want[i], 4);
        ASSERT_EQ(g, w) << what << " diverges at " << i;
    }
}

struct KernelRun
{
    std::vector<float> residual;
    std::vector<float> out;
    std::vector<std::uint8_t> packed;
    OneBitChunkStats stats;
};

KernelRun
runKernel(bool fused, const std::vector<float> &residual0,
          const std::vector<float> &grad)
{
    KernelRun r;
    r.residual = residual0;
    r.out.assign(grad.size(), 0.0f);
    r.packed.assign(packedBytes(grad.size()), 0);
    r.stats = fused ? onebitTranscodeFused(r.residual, grad, r.out,
                                           r.packed)
                    : onebitTranscodeRef(r.residual, grad, r.out,
                                         r.packed);
    return r;
}

/** Fused == ref, bit for bit, across widths covering the 64-element
 *  word boundary and the ISSUE's 4096-wide row. */
TEST(CodecFusedTest, FusedMatchesRefBitwise)
{
    for (std::size_t n :
         {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{127},
          std::size_t{128}, std::size_t{129}, std::size_t{1000},
          std::size_t{4096}}) {
        Rng rng(n * 17 + 3);
        std::vector<float> grad(n), residual0(n);
        for (auto &x : grad)
            x = static_cast<float>(rng.gaussian());
        for (auto &x : residual0)
            x = static_cast<float>(rng.gaussian() * 0.25);

        const KernelRun fused = runKernel(true, residual0, grad);
        const KernelRun ref = runKernel(false, residual0, grad);

        expectBitwiseEq(fused.out, ref.out, "out");
        expectBitwiseEq(fused.residual, ref.residual, "residual");
        ASSERT_EQ(fused.packed, ref.packed) << "packed, n=" << n;
        std::uint32_t fs, rs;
        std::memcpy(&fs, &fused.stats.scale, 4);
        std::memcpy(&rs, &ref.stats.scale, 4);
        ASSERT_EQ(fs, rs) << "scale, n=" << n;
    }
}

/** sum(|grad|) from the fused sweep equals a plain sequential sum. */
TEST(CodecFusedTest, ImportanceMagnitudeMatchesSeparatePass)
{
    Rng rng(55);
    const std::size_t n = 777;
    std::vector<float> grad(n), residual0(n, 0.0f);
    for (auto &x : grad)
        x = static_cast<float>(rng.gaussian());
    const KernelRun fused = runKernel(true, residual0, grad);
    float want = 0.0f;
    for (float g : grad)
        want += std::fabs(g);
    EXPECT_EQ(fused.stats.sum_abs_grad, want);
}

/** Error compensation carries across calls identically on both
 *  kernels: iterate several rounds, compare full state each time. */
TEST(CodecFusedTest, ResidualCarriesIdenticallyAcrossRounds)
{
    const std::size_t n = 200;
    Rng rng(99);
    std::vector<float> res_fused(n, 0.0f), res_ref(n, 0.0f);
    for (int round = 0; round < 10; ++round) {
        std::vector<float> grad(n);
        for (auto &x : grad)
            x = static_cast<float>(rng.gaussian());
        std::vector<float> out_f(n), out_r(n);
        std::vector<std::uint8_t> pk_f(packedBytes(n)),
            pk_r(packedBytes(n));
        onebitTranscodeFused(res_fused, grad, out_f, pk_f);
        onebitTranscodeRef(res_ref, grad, out_r, pk_r);
        expectBitwiseEq(out_f, out_r, "out");
        expectBitwiseEq(res_fused, res_ref, "residual");
        ASSERT_EQ(pk_f, pk_r) << "round " << round;
    }
}

/**
 * 1000-schedule fuzz: random widths, offsets splitting a block into
 * chunks, and gradients. The OneBitCodec (fused path, pool scratch)
 * must reconstruct exactly what a scratch-built reference codec run
 * produces.
 */
TEST(CodecFusedTest, CodecMatchesRefKernelUnderFuzz)
{
    Rng rng(20240805);
    for (int round = 0; round < 1000; ++round) {
        const std::size_t width = 1 + rng.next() % 300;
        std::vector<float> grad(width), out(width);
        for (auto &x : grad)
            x = static_cast<float>(rng.gaussian());

        OneBitCodec codec;
        // Split the block at a random chunk boundary (or not at all).
        const std::size_t cut = rng.next() % (width + 1);
        if (cut > 0)
            codec.transcode(7, width, 0,
                            {grad.data(), cut}, {out.data(), cut});
        if (cut < width)
            codec.transcode(7, width, cut,
                            {grad.data() + cut, width - cut},
                            {out.data() + cut, width - cut});

        // Reference: the ref kernel over the same chunking.
        std::vector<float> res(width, 0.0f), want(width);
        std::vector<std::uint8_t> pk(packedBytes(width));
        if (cut > 0)
            onebitTranscodeRef({res.data(), cut}, {grad.data(), cut},
                               {want.data(), cut},
                               {pk.data(), packedBytes(cut)});
        if (cut < width)
            onebitTranscodeRef({res.data() + cut, width - cut},
                               {grad.data() + cut, width - cut},
                               {want.data() + cut, width - cut},
                               {pk.data(), packedBytes(width - cut)});
        expectBitwiseEq(out, want, "codec out");
    }
}

/**
 * Thread-count independence: transcoding many prepared blocks inside
 * parallelFor regions over pools of 1/2/4/8 threads yields bitwise
 * identical outputs and residuals — the property EngineConfig's
 * determinism contract reduces to at this layer.
 */
TEST(CodecFusedTest, ParallelTranscodeIndependentOfThreads)
{
    const std::size_t blocks = 24;
    const std::size_t width = 130;
    Rng rng(4242);
    std::vector<std::vector<float>> grads(blocks,
                                          std::vector<float>(width));
    for (auto &g : grads)
        for (auto &x : g)
            x = static_cast<float>(rng.gaussian());

    auto runWith = [&](std::size_t threads) {
        parallel::ThreadPool pool(threads);
        OneBitCodec codec;
        for (std::size_t b = 0; b < blocks; ++b)
            codec.prepare(b, width);
        std::vector<std::vector<float>> outs(
            blocks, std::vector<float>(width, 0.0f));
        std::vector<double> mags(blocks, 0.0);
        for (int round = 0; round < 3; ++round) {
            parallel::parallelFor(
                0, blocks, 1,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t b = lo; b < hi; ++b)
                        mags[b] = codec.transcodeRow(b, grads[b], outs[b]);
                },
                pool);
        }
        std::vector<float> flat;
        for (std::size_t b = 0; b < blocks; ++b) {
            flat.insert(flat.end(), outs[b].begin(), outs[b].end());
            EXPECT_GT(mags[b], 0.0);
        }
        return flat;
    };

    const auto base = runWith(1);
    for (std::size_t t : {std::size_t{2}, std::size_t{4}, std::size_t{8}})
        expectBitwiseEq(runWith(t), base, "thread sweep");
}

TEST(CodecFusedTest, KernelAssertsOnBadScratch)
{
    std::vector<float> res(10, 0.0f), grad(10, 1.0f), out(10);
    std::vector<std::uint8_t> packed(1); // needs 2.
    EXPECT_DEATH(onebitTranscodeFused(res, grad, out, packed),
                 "scratch");
}

} // namespace
} // namespace compress
} // namespace rog
