/**
 * @file
 * Pool-parallel tensor kernels.
 *
 * Every kernel here obeys the parallel runtime's determinism contract
 * (parallel_for.hpp): work splits at *fixed* boundaries that depend
 * only on the tensor shape, each chunk writes disjoint output (or
 * reduces through parallelReduce's ordered tree), and the per-element
 * floating-point operation order never depends on ROG_THREADS. The
 * seed's scalar kernels survive in ops_ref.cpp as the equivalence
 * baseline; the PR-2 autovectorized blocked GEMMs survive in
 * ops_blocked.cpp as the measured bench baseline.
 *
 * All four matmul variants (plain / transA / transB, and through them
 * the conv im2col path) run the packed-panel microkernel engine in
 * gemm.cpp: operands are strided views packed once per K-block, so
 * transpose cases stop paying strided loads, and the register
 * microkernel tier (AVX-512 / AVX2+FMA / NEON / packed scalar) is
 * picked once per process by runtime dispatch — same pattern as
 * common/crc32c.
 */
#include "tensor/ops.hpp"

#include <cmath>
#include <cstring>

#include "common/logging.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"

namespace rog {
namespace tensor {

namespace {

// Rows of output per parallel chunk for row-wise elementwise kernels.
constexpr std::size_t kRowGrain = 32;

// Elementwise grain (see parallel_for.hpp).
constexpr std::size_t kGrain = parallel::kDefaultGrain;

} // namespace

void
matmul(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.cols() == b.rows() && out.rows() == a.rows() &&
               out.cols() == b.cols(), "matmul shape mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    gemm::run(gemm::activeTier(), {a.data(), k, 1}, {b.data(), n, 1},
              out.data(), n, m, n, k);
}

void
matmulTransA(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.rows() == b.rows() && out.rows() == a.cols() &&
               out.cols() == b.cols(), "matmulTransA shape mismatch");
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    // A^T is a strided view: element (i, p) of A^T is a[p * m + i].
    // The packer materializes it as contiguous slivers in one pass.
    gemm::run(gemm::activeTier(), {a.data(), 1, m}, {b.data(), n, 1},
              out.data(), n, m, n, k);
}

void
matmulTransB(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.cols() == b.cols() && out.rows() == a.rows() &&
               out.cols() == b.rows(), "matmulTransB shape mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    // B^T view: element (p, j) of B^T is b[j * k + p].
    gemm::run(gemm::activeTier(), {a.data(), k, 1}, {b.data(), 1, k},
              out.data(), n, m, n, k);
}

const char *
matmulActiveTier()
{
    return gemm::tierName(gemm::activeTier());
}

const char *
matmulIsa()
{
    return gemm::tierIsa(gemm::activeTier());
}

void
axpy(float alpha, const Tensor &x, Tensor &y)
{
    ROG_ASSERT(x.sameShape(y), "axpy shape mismatch");
    const float *xd = x.data();
    float *yd = y.data();
    parallel::parallelFor(0, x.size(), kGrain,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  yd[i] += alpha * xd[i];
                          });
}

void
copy(const Tensor &x, Tensor &y)
{
    ROG_ASSERT(x.sameShape(y), "copy shape mismatch");
    std::memcpy(y.data(), x.data(), x.size() * sizeof(float));
}

void
scale(Tensor &x, float alpha)
{
    float *xd = x.data();
    parallel::parallelFor(0, x.size(), kGrain,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  xd[i] *= alpha;
                          });
}

void
addRowBias(Tensor &x, const Tensor &bias)
{
    ROG_ASSERT(bias.rows() == 1 && bias.cols() == x.cols(),
               "bias shape mismatch");
    const std::size_t cols = x.cols();
    float *xd = x.data();
    const float *bd = bias.data();
    parallel::parallelFor(
        0, x.rows(), kRowGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                float *row = xd + i * cols;
                for (std::size_t j = 0; j < cols; ++j)
                    row[j] += bd[j];
            }
        });
}

void
relu(const Tensor &x, Tensor &out)
{
    ROG_ASSERT(x.sameShape(out), "relu shape mismatch");
    const float *xd = x.data();
    float *od = out.data();
    parallel::parallelFor(0, x.size(), kGrain,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  od[i] = xd[i] > 0.0f ? xd[i] : 0.0f;
                          });
}

void
reluBackward(const Tensor &x, const Tensor &dout, Tensor &din)
{
    ROG_ASSERT(x.sameShape(dout) && x.sameShape(din),
               "reluBackward shape mismatch");
    const float *xd = x.data();
    const float *dd = dout.data();
    float *od = din.data();
    // dout is loaded unconditionally: with the load under the branch
    // GCC cannot if-convert the loop, with it hoisted the loop is a
    // vectorized select. Same bits either way.
    parallel::parallelFor(
        0, x.size(), kGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const float d = dd[i];
                od[i] = xd[i] > 0.0f ? d : 0.0f;
            }
        });
}

void
tanhForward(const Tensor &x, Tensor &out)
{
    ROG_ASSERT(x.sameShape(out), "tanh shape mismatch");
    const float *xd = x.data();
    float *od = out.data();
    parallel::parallelFor(0, x.size(), kGrain,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                  od[i] = std::tanh(xd[i]);
                          });
}

void
tanhBackward(const Tensor &out, const Tensor &dout, Tensor &din)
{
    ROG_ASSERT(out.sameShape(dout) && out.sameShape(din),
               "tanhBackward shape mismatch");
    const float *od = out.data();
    const float *dd = dout.data();
    float *id = din.data();
    parallel::parallelFor(
        0, out.size(), kGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                id[i] = dd[i] * (1.0f - od[i] * od[i]);
        });
}

void
softmaxRows(Tensor &x)
{
    const std::size_t cols = x.cols();
    float *xd = x.data();
    parallel::parallelFor(
        0, x.rows(), kRowGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                float *row = xd + i * cols;
                float mx = row[0];
                for (std::size_t j = 1; j < cols; ++j)
                    mx = std::max(mx, row[j]);
                float sum = 0.0f;
                for (std::size_t j = 0; j < cols; ++j) {
                    row[j] = std::exp(row[j] - mx);
                    sum += row[j];
                }
                const float inv = 1.0f / sum;
                for (std::size_t j = 0; j < cols; ++j)
                    row[j] *= inv;
            }
        });
}

float
meanAbs(std::span<const float> v)
{
    if (v.empty())
        return 0.0f;
    const float *d = v.data();
    // Double accumulation (like frobeniusNorm): float accumulation
    // drifts measurably by ~10^6 elements, and the importance ranking
    // compares these values across units of very different sizes.
    const double s = parallel::parallelReduce(
        std::size_t{0}, v.size(), kGrain, 0.0,
        [&](std::size_t lo, std::size_t hi) {
            double partial = 0.0;
            for (std::size_t i = lo; i < hi; ++i)
                partial += std::fabs(static_cast<double>(d[i]));
            return partial;
        },
        [](double a, double b) { return a + b; });
    return static_cast<float>(s / static_cast<double>(v.size()));
}

float
meanAbs(const Tensor &x)
{
    return meanAbs(std::span<const float>(x.data(), x.size()));
}

float
maxAbs(const Tensor &x)
{
    const float *d = x.data();
    return parallel::parallelReduce(
        std::size_t{0}, x.size(), kGrain, 0.0f,
        [&](std::size_t lo, std::size_t hi) {
            float partial = 0.0f;
            for (std::size_t i = lo; i < hi; ++i)
                partial = std::max(partial, std::fabs(d[i]));
            return partial;
        },
        [](float a, float b) { return std::max(a, b); });
}

float
frobeniusNorm(const Tensor &x)
{
    const float *d = x.data();
    const double s = parallel::parallelReduce(
        std::size_t{0}, x.size(), kGrain, 0.0,
        [&](std::size_t lo, std::size_t hi) {
            double partial = 0.0;
            for (std::size_t i = lo; i < hi; ++i)
                partial += static_cast<double>(d[i]) * d[i];
            return partial;
        },
        [](double a, double b) { return a + b; });
    return static_cast<float>(std::sqrt(s));
}

std::size_t
argmaxRow(const Tensor &x, std::size_t r)
{
    auto row = x.row(r);
    std::size_t best = 0;
    for (std::size_t j = 1; j < row.size(); ++j)
        if (row[j] > row[best])
            best = j;
    return best;
}

} // namespace tensor
} // namespace rog
