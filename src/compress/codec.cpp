#include "compress/codec.hpp"

#include <algorithm>
#include <cmath>

#include "common/buffer_pool.hpp"
#include "common/logging.hpp"
#include "compress/packbits.hpp"

namespace rog {
namespace compress {

OneBitChunkStats
onebitTranscodeFused(std::span<float> residual,
                     std::span<const float> grad, std::span<float> out,
                     std::span<std::uint8_t> packed)
{
    const std::size_t n = grad.size();
    ROG_ASSERT(residual.size() == n && out.size() == n,
               "onebit kernel span size mismatch");
    ROG_ASSERT(packed.size() == packedBytes(n),
               "onebit kernel packed scratch size mismatch");

    float *res = residual.data();
    const float *g = grad.data();

    // Sweep 1 (the fusion): e = res + grad, scale and importance
    // accumulators, and the wire sign bits — one pass over the row
    // instead of the reference's accumulate + pack + unpack chain.
    // The float accumulation order is the reference's (sequential in
    // i), which keeps the scale bitwise identical; the sign predicate
    // e >= 0 is packSigns'.
    float scale = 0.0f;
    float sum_abs_grad = 0.0f;
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        std::uint64_t bits = 0;
        for (std::size_t j = 0; j < 64; ++j) {
            const float e = res[i + j] + g[i + j];
            res[i + j] = e;
            scale += std::fabs(e);
            sum_abs_grad += std::fabs(g[i + j]);
            bits |= static_cast<std::uint64_t>(e >= 0.0f) << j;
        }
        std::uint8_t *o = packed.data() + i / 8;
        for (std::size_t b = 0; b < 8; ++b)
            o[b] = static_cast<std::uint8_t>(bits >> (8 * b));
    }
    for (; i < n; i += 8) {
        std::uint8_t byte = 0;
        const std::size_t m = n - i < 8 ? n - i : 8;
        for (std::size_t j = 0; j < m; ++j) {
            const float e = res[i + j] + g[i + j];
            res[i + j] = e;
            scale += std::fabs(e);
            sum_abs_grad += std::fabs(g[i + j]);
            byte |= static_cast<std::uint8_t>(
                static_cast<unsigned>(e >= 0.0f) << j);
        }
        packed[i / 8] = byte;
    }
    scale /= static_cast<float>(n);

    // Sweep 2: quantize and fold the error back. Reading the residual
    // sign directly is exact: unpack maps bit -> ±1.0f and
    // scale * ±1.0f == ±scale in IEEE arithmetic, so skipping the
    // unpack round-trip changes nothing, bit for bit.
    for (std::size_t k = 0; k < n; ++k) {
        const float q = res[k] >= 0.0f ? scale : -scale;
        out[k] = q;
        res[k] -= q;
    }

    OneBitChunkStats stats;
    stats.scale = scale;
    stats.sum_abs_grad = sum_abs_grad;
    return stats;
}

OneBitChunkStats
onebitTranscodeRef(std::span<float> residual, std::span<const float> grad,
                   std::span<float> out, std::span<std::uint8_t> packed)
{
    const std::size_t n = grad.size();
    ROG_ASSERT(residual.size() == n && out.size() == n,
               "onebit kernel span size mismatch");
    ROG_ASSERT(packed.size() == packedBytes(n),
               "onebit kernel packed scratch size mismatch");

    float *res = residual.data();

    // The seed pipeline, pass for pass: e = grad + residual and
    // scale = mean(|e|) over the chunk ...
    float scale = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        res[i] += grad[i];
        scale += std::fabs(res[i]);
    }
    scale /= static_cast<float>(n);

    // ... then the real wire path: pack sign bits, then unpack, so the
    // decoded value is exactly what a receiver would reconstruct ...
    packSignsRef(residual, packed);
    std::vector<float> signs(n);
    unpackSignsRef(packed, n, signs);

    // ... then quantize with error compensation for the next round.
    for (std::size_t i = 0; i < n; ++i) {
        const float q = scale * signs[i];
        out[i] = q;
        res[i] -= q;
    }

    // The importance magnitude the fused kernel folds into its sweep
    // is a separate pass here — that is the point of the comparison.
    float sum_abs_grad = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        sum_abs_grad += std::fabs(grad[i]);

    OneBitChunkStats stats;
    stats.scale = scale;
    stats.sum_abs_grad = sum_abs_grad;
    return stats;
}

double
IdentityCodec::transcode(std::size_t, std::size_t block_width,
                         std::size_t offset, std::span<const float> grad,
                         std::span<float> out)
{
    ROG_ASSERT(grad.size() == out.size(), "codec chunk size mismatch");
    ROG_ASSERT(offset + grad.size() <= block_width,
               "codec chunk exceeds block");
    for (std::size_t i = 0; i < grad.size(); ++i)
        out[i] = grad[i];
    return 0.0;
}

double
IdentityCodec::payloadBytes(std::size_t width) const
{
    return 4.0 * static_cast<double>(width);
}

void
Codec::prepare(std::size_t, std::size_t)
{
    // Stateless by default.
}

void
OneBitCodec::prepare(std::size_t block, std::size_t block_width)
{
    blockFor(block, block_width);
}

OneBitCodec::BlockState &
OneBitCodec::blockFor(std::size_t block, std::size_t block_width)
{
    // find-first: after prepare() the lookup is read-only, so
    // concurrent transcodes of distinct prepared blocks never touch
    // the map structure.
    auto it = blocks_.find(block);
    if (it == blocks_.end()) {
        it = blocks_.emplace(block, BlockState{}).first;
        it->second.residual.assign(block_width, 0.0f);
        it->second.packed.resize(packedBytes(block_width));
    }
    ROG_ASSERT(it->second.residual.size() == block_width,
               "block width changed between calls");
    return it->second;
}

void
TopKCodec::prepare(std::size_t block, std::size_t block_width)
{
    residualFor(block, block_width);
}

std::vector<float> &
TopKCodec::residualFor(std::size_t block, std::size_t block_width)
{
    // find-first: after prepare() the lookup is read-only, so
    // concurrent transcodes of distinct prepared blocks never touch
    // the map structure.
    auto it = residual_.find(block);
    if (it == residual_.end()) {
        it = residual_
                 .emplace(block, std::vector<float>(block_width, 0.0f))
                 .first;
    }
    ROG_ASSERT(it->second.size() == block_width,
               "block width changed between calls");
    return it->second;
}

double
OneBitCodec::transcode(std::size_t block, std::size_t block_width,
                       std::size_t offset, std::span<const float> grad,
                       std::span<float> out)
{
    ROG_ASSERT(grad.size() == out.size(), "codec chunk size mismatch");
    const std::size_t n = grad.size();
    ROG_ASSERT(offset + n <= block_width, "codec chunk exceeds block");

    BlockState &state = blockFor(block, block_width);
    const auto stats = onebitTranscodeFused(
        {state.residual.data() + offset, n}, grad, out,
        {state.packed.data(), packedBytes(n)});
    return static_cast<double>(stats.sum_abs_grad);
}

double
OneBitCodec::payloadBytes(std::size_t width) const
{
    // Packed sign bits + one float32 scale.
    return static_cast<double>(packedBytes(width)) + 4.0;
}

TopKCodec::TopKCodec(double keep_fraction)
    : keep_fraction_(keep_fraction)
{
    ROG_ASSERT(keep_fraction > 0.0 && keep_fraction <= 1.0,
               "top-k keep fraction must be in (0, 1]");
}

double
TopKCodec::transcode(std::size_t block, std::size_t block_width,
                     std::size_t offset, std::span<const float> grad,
                     std::span<float> out)
{
    ROG_ASSERT(grad.size() == out.size(), "codec chunk size mismatch");
    const std::size_t n = grad.size();
    ROG_ASSERT(offset + n <= block_width, "codec chunk exceeds block");

    auto &res = residualFor(block, block_width);

    for (std::size_t i = 0; i < n; ++i)
        res[offset + i] += grad[i];

    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(keep_fraction_ * static_cast<double>(n))));

    // Select the `keep` largest-magnitude positions of this chunk.
    // Selection scratch is leased per call so distinct blocks can
    // transcode concurrently without per-thread high-water memory.
    auto order = BufferPool::global().leaseIndices(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::partial_sort(order.data(),
                      order.data() + static_cast<std::ptrdiff_t>(keep),
                      order.data() + n,
                      [&](std::size_t a, std::size_t b) {
                          return std::fabs(res[offset + a]) >
                                 std::fabs(res[offset + b]);
                      });

    for (std::size_t i = 0; i < n; ++i)
        out[i] = 0.0f;
    for (std::size_t k = 0; k < keep; ++k) {
        const std::size_t i = order[k];
        out[i] = res[offset + i];
        res[offset + i] = 0.0f; // exact transmission: no residual left.
    }
    return 0.0;
}

double
TopKCodec::payloadBytes(std::size_t width) const
{
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(keep_fraction_ * static_cast<double>(width))));
    // Per surviving element: 4-byte index + 4-byte float32 value.
    return 8.0 * static_cast<double>(keep);
}

std::unique_ptr<Codec>
makeCodec(const std::string &name)
{
    if (name == "identity")
        return std::make_unique<IdentityCodec>();
    if (name == "onebit")
        return std::make_unique<OneBitCodec>();
    if (name == "topk")
        return std::make_unique<TopKCodec>();
    ROG_FATAL("unknown codec: ", name);
}

} // namespace compress
} // namespace rog
