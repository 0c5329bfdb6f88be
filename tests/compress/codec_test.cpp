/**
 * @file
 * Unit tests for gradient codecs, including the error-compensation
 * ("lossless in the long run") property of one-bit compression.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "compress/codec.hpp"

namespace rog {
namespace compress {
namespace {

/**
 * Per-step gradient spread of the error-feedback streams. The residual
 * a one-bit block carries is exactly the cumulative input it has not
 * yet delivered, and error feedback keeps it within a few quantisation
 * steps (each about kSigma), so the cumulative error stays under
 * kFeedbackBound however long the stream runs. Without the residual it
 * random-walks to several times that.
 */
constexpr double kSigma = 0.1;
constexpr double kFeedbackBound = 5.0 * kSigma;

TEST(CodecTest, IdentityIsExact)
{
    IdentityCodec codec;
    std::vector<float> in = {1.5f, -2.5f, 0.0f};
    std::vector<float> out(3);
    codec.transcodeRow(0, in, out);
    EXPECT_EQ(out, in);
    EXPECT_DOUBLE_EQ(codec.payloadBytes(3), 12.0);
}

TEST(CodecTest, OneBitOutputIsSignTimesScale)
{
    OneBitCodec codec;
    std::vector<float> in = {1.0f, -3.0f, 2.0f, -2.0f};
    std::vector<float> out(4);
    codec.transcodeRow(0, in, out);
    const float scale = (1.0f + 3.0f + 2.0f + 2.0f) / 4.0f;
    EXPECT_FLOAT_EQ(out[0], scale);
    EXPECT_FLOAT_EQ(out[1], -scale);
    EXPECT_FLOAT_EQ(out[2], scale);
    EXPECT_FLOAT_EQ(out[3], -scale);
}

TEST(CodecTest, OneBitPayloadIsBitsPlusScale)
{
    OneBitCodec codec;
    EXPECT_DOUBLE_EQ(codec.payloadBytes(8), 1.0 + 4.0);
    EXPECT_DOUBLE_EQ(codec.payloadBytes(100), 13.0 + 4.0);
    // Compression ratio approaches 1/32 of float32 for wide rows.
    EXPECT_LT(codec.payloadBytes(512) / (4.0 * 512), 0.04);
}

TEST(CodecTest, OneBitErrorFeedbackIsLossless)
{
    // Cumulative decoded output tracks cumulative input: the residual
    // carries everything that was quantized away (error compensation
    // per [22]).
    OneBitCodec codec;
    Rng rng(3);
    const std::size_t width = 64;
    std::vector<double> cum_in(width, 0.0), cum_out(width, 0.0);
    std::vector<float> in(width), out(width);
    for (int step = 0; step < 400; ++step) {
        for (std::size_t i = 0; i < width; ++i) {
            in[i] = static_cast<float>(rng.gaussian(0.0, kSigma));
            cum_in[i] += in[i];
        }
        codec.transcodeRow(7, in, out);
        for (std::size_t i = 0; i < width; ++i)
            cum_out[i] += out[i];
    }
    // The cumulative error stays bounded while cumulative input grows
    // (to ~20 kSigma per element): relative error is small.
    for (std::size_t i = 0; i < width; ++i)
        EXPECT_NEAR(cum_out[i], cum_in[i], kFeedbackBound) << i;
}

TEST(CodecTest, OneBitRowsAreIndependent)
{
    OneBitCodec codec;
    std::vector<float> a = {10.0f, 10.0f};
    std::vector<float> b = {-1.0f, 1.0f};
    std::vector<float> out_a(2), out_b(2);
    codec.transcodeRow(0, a, out_a);
    codec.transcodeRow(1, b, out_b);
    // Row 1's scale must not be polluted by row 0's residual.
    EXPECT_FLOAT_EQ(std::fabs(out_b[0]), 1.0f);
}

TEST(CodecTest, OneBitResidualShrinksReconstructionError)
{
    // Feeding the same constant vector repeatedly: with error
    // feedback, the mean decoded value converges to the input.
    OneBitCodec codec;
    const std::size_t width = 16;
    std::vector<float> in(width);
    for (std::size_t i = 0; i < width; ++i)
        in[i] = 0.01f * static_cast<float>(i + 1);
    std::vector<float> out(width);
    std::vector<double> cum(width, 0.0);
    const int steps = 500;
    for (int s = 0; s < steps; ++s) {
        codec.transcodeRow(0, in, out);
        for (std::size_t i = 0; i < width; ++i)
            cum[i] += out[i];
    }
    for (std::size_t i = 0; i < width; ++i)
        EXPECT_NEAR(cum[i] / steps, in[i], 0.02) << i;
}

TEST(CodecTest, RowWidthChangeDies)
{
    OneBitCodec codec;
    std::vector<float> a(4, 1.0f), out4(4);
    codec.transcodeRow(0, a, out4);
    std::vector<float> b(8, 1.0f), out8(8);
    EXPECT_DEATH(codec.transcodeRow(0, b, out8), "width");
}

TEST(CodecTest, ChunkedTranscodeSharesBlockResidual)
{
    // Transcoding a block in two chunks must use one residual buffer:
    // the second chunk of the same block sees its own error state, and
    // the chunks quantize with independent scales.
    OneBitCodec codec;
    std::vector<float> in = {1.0f, 1.0f, 10.0f, 10.0f};
    std::vector<float> out(4);
    codec.transcode(3, 4, 0, {in.data(), 2}, {out.data(), 2});
    codec.transcode(3, 4, 2, {in.data() + 2, 2}, {out.data() + 2, 2});
    // Per-chunk scales: 1.0 for the first chunk, 10.0 for the second.
    EXPECT_FLOAT_EQ(out[0], 1.0f);
    EXPECT_FLOAT_EQ(out[2], 10.0f);
    // Error feedback: residuals are exact, so a zero follow-up input
    // decodes to (previous residual)'s quantization, still bounded.
    std::vector<float> zero(4, 0.0f), out2(4);
    codec.transcode(3, 4, 0, zero, out2);
    EXPECT_LE(std::fabs(out2[0]), 1.0f);
}

TEST(CodecTest, ChunkBeyondBlockDies)
{
    OneBitCodec codec;
    std::vector<float> in(4, 1.0f), out(4);
    EXPECT_DEATH(codec.transcode(0, 4, 2, in, out), "block");
}

TEST(CodecTest, ChunkedErrorFeedbackIsLosslessPerBlock)
{
    // Property: streaming a block in uneven chunks preserves the
    // cumulative-conservation property of error compensation.
    OneBitCodec codec;
    Rng rng(11);
    const std::size_t width = 48;
    std::vector<double> cum_in(width, 0.0), cum_out(width, 0.0);
    std::vector<float> in(width), out(width);
    for (int step = 0; step < 300; ++step) {
        for (std::size_t i = 0; i < width; ++i) {
            in[i] = static_cast<float>(rng.gaussian(0.0, kSigma));
            cum_in[i] += in[i];
        }
        // Split at a varying point.
        const std::size_t cut = 1 + step % (width - 1);
        codec.transcode(0, width, 0, {in.data(), cut},
                        {out.data(), cut});
        codec.transcode(0, width, cut, {in.data() + cut, width - cut},
                        {out.data() + cut, width - cut});
        for (std::size_t i = 0; i < width; ++i)
            cum_out[i] += out[i];
    }
    for (std::size_t i = 0; i < width; ++i)
        EXPECT_NEAR(cum_out[i], cum_in[i], kFeedbackBound) << i;
}

TEST(CodecTest, FactoryByName)
{
    EXPECT_EQ(makeCodec("identity")->name(), "identity");
    EXPECT_EQ(makeCodec("onebit")->name(), "onebit");
    EXPECT_EQ(makeCodec("topk")->name(), "topk");
    EXPECT_THROW(makeCodec("zstd"), std::runtime_error);
}

TEST(TopKCodecTest, KeepsLargestMagnitudes)
{
    TopKCodec codec(0.25); // keep 2 of 8.
    std::vector<float> in = {0.1f, -5.0f, 0.2f, 0.0f,
                             3.0f, -0.3f, 0.05f, 0.4f};
    std::vector<float> out(8);
    codec.transcodeRow(0, in, out);
    EXPECT_FLOAT_EQ(out[1], -5.0f);
    EXPECT_FLOAT_EQ(out[4], 3.0f);
    for (std::size_t i : {0u, 2u, 3u, 5u, 6u, 7u})
        EXPECT_FLOAT_EQ(out[i], 0.0f) << i;
}

TEST(TopKCodecTest, ResidualDeliversSuppressedMassLater)
{
    // An element suppressed in round 1 accumulates and eventually
    // outranks the rest (error compensation keeps it lossless).
    TopKCodec codec(0.5); // keep 1 of 2.
    std::vector<float> out(2);
    std::vector<float> in = {1.0f, 0.6f};
    codec.transcodeRow(0, in, out);
    EXPECT_FLOAT_EQ(out[0], 1.0f);
    EXPECT_FLOAT_EQ(out[1], 0.0f);
    codec.transcodeRow(0, in, out); // residual[1] = 1.2 beats 1.0.
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], 1.2f);
}

TEST(TopKCodecTest, CumulativeConservation)
{
    TopKCodec codec(0.2);
    Rng rng(21);
    const std::size_t width = 40;
    std::vector<double> cum_in(width, 0.0), cum_out(width, 0.0);
    std::vector<float> in(width), out(width);
    for (int step = 0; step < 300; ++step) {
        for (std::size_t i = 0; i < width; ++i) {
            in[i] = static_cast<float>(rng.gaussian(0.0, 0.1));
            cum_in[i] += in[i];
        }
        codec.transcodeRow(3, in, out);
        for (std::size_t i = 0; i < width; ++i)
            cum_out[i] += out[i];
    }
    // Transmission is exact for what goes out: cumulative difference
    // equals whatever still sits in the residual (bounded).
    for (std::size_t i = 0; i < width; ++i)
        EXPECT_NEAR(cum_out[i], cum_in[i], 2.0) << i;
}

TEST(TopKCodecTest, PayloadScalesWithKeepFraction)
{
    TopKCodec dense(1.0);
    TopKCodec sparse(0.1);
    EXPECT_DOUBLE_EQ(dense.payloadBytes(100), 800.0);
    EXPECT_DOUBLE_EQ(sparse.payloadBytes(100), 80.0);
    // At 10% keep, top-k costs more wire than one-bit for this width.
    OneBitCodec onebit;
    EXPECT_GT(sparse.payloadBytes(100), onebit.payloadBytes(100));
}

TEST(TopKCodecTest, BadFractionDies)
{
    EXPECT_DEATH(TopKCodec bad(0.0), "fraction");
    EXPECT_DEATH(TopKCodec bad2(1.5), "fraction");
}

TEST(CodecTest, CompressionRatioMatchesPaperBallpark)
{
    // The paper reports ~3.2% wire volume after one-bit compression.
    // For a row of 500 elements: (63 + 4) / 2000 = 3.35%.
    OneBitCodec codec;
    const double ratio = codec.payloadBytes(500) / (4.0 * 500);
    EXPECT_GT(ratio, 0.028);
    EXPECT_LT(ratio, 0.04);
}

} // namespace
} // namespace compress
} // namespace rog
