/**
 * @file
 * Bitwise spec of relu and reluBackward on the global pool:
 * relu(x) == (x > 0 ? x : +0.0f) and din == (x > 0 ? dout : +0.0f),
 * element for element, over signed zeros, NaNs, infinities and
 * subnormals in both inputs. The sizes span several kGrain chunks, and
 * ctest runs this binary twice: with the default single-thread pool
 * (the inline path) and with ROG_THREADS=4 (the pooled path).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/ops.hpp"

namespace rog {
namespace tensor {
namespace {

std::uint32_t
bitsOf(float v)
{
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Special values; the x and dout cycles have coprime lengths, so
 *  every (x, dout) pair of specials occurs. */
std::vector<float>
specials()
{
    using L = std::numeric_limits<float>;
    return {0.0f,          -0.0f,          L::quiet_NaN(),
            -L::quiet_NaN(), L::infinity(), -L::infinity(),
            L::denorm_min(), -L::denorm_min(), L::min() / 2.0f,
            -L::min() / 2.0f, L::min(),     -L::min(),
            1.0f,          -1.0f,          L::max(),
            -3.5f};
}

void
fill(Tensor &t, std::size_t cycle, Rng &rng)
{
    const auto sp = specials();
    for (std::size_t i = 0; i < t.size(); ++i) {
        // Every third element is an ordinary gaussian value.
        t[i] = i % 3 == 2 ? static_cast<float>(rng.gaussian())
                          : sp[(i / 3) % cycle % sp.size()];
    }
}

TEST(ReluSpec, ForwardAndBackwardMatchTheSelectBitwise)
{
    const std::size_t threads = parallel::ThreadPool::global().threads();
    SCOPED_TRACE("pool threads " + std::to_string(threads));
    Rng rng(31);
    // Ragged last chunk: not a multiple of kDefaultGrain.
    for (std::size_t n : {std::size_t{37}, parallel::kDefaultGrain * 3 + 5}) {
        Tensor x(1, n), dout(1, n), out(1, n), din(1, n);
        fill(x, specials().size(), rng);
        fill(dout, specials().size() + 1, rng); // coprime with 16.
        // Poison the outputs so every element must be written.
        for (std::size_t i = 0; i < n; ++i)
            out[i] = din[i] = 7.0f;
        relu(x, out);
        reluBackward(x, dout, din);
        for (std::size_t i = 0; i < n; ++i) {
            const float want_out = x[i] > 0.0f ? x[i] : 0.0f;
            const float want_din = x[i] > 0.0f ? dout[i] : 0.0f;
            ASSERT_EQ(bitsOf(out[i]), bitsOf(want_out))
                << "relu at " << i << " x=" << x[i];
            ASSERT_EQ(bitsOf(din[i]), bitsOf(want_din))
                << "reluBackward at " << i << " x=" << x[i]
                << " dout=" << dout[i];
        }
    }
}

} // namespace
} // namespace tensor
} // namespace rog
