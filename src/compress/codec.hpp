/**
 * @file
 * Gradient row codecs.
 *
 * The paper compresses gradients with the lossless one-bit scheme of
 * [22]: values quantize to sign * mean(|.|) per block, the lost
 * information is carried forward in an error-compensation residual,
 * and the sign bits are packed (packbits) for the wire. A codec here
 * performs encode+decode in one step — in simulation the sender and
 * receiver share an address space — and reports the wire size the
 * channel must carry.
 *
 * Codecs are stateful per (direction, peer): the error residual of the
 * worker->server push must not mix with the server->worker pull, so
 * each endpoint owns its own instance.
 *
 * Threading: distinct *blocks* of one codec may be transcoded
 * concurrently once prepare() has created their state; the same block
 * must never be transcoded by two threads at once — its residual is a
 * sequential stream. That rule also makes per-block scratch (one-bit's
 * packed sign bits) race-free without locks or per-thread copies.
 *
 * Kernels: the one-bit hot path is the *fused* kernel
 * (onebitTranscodeFused) — residual update, scale accumulation, sign
 * extraction into packed wire bits, and the importance magnitude of
 * the raw gradient all happen in one sweep, with the quantize/
 * error-feedback sweep reading the residual signs directly instead of
 * round-tripping through unpack. The seed's four-pass pipeline is kept
 * verbatim as onebitTranscodeRef: the equivalence oracle and the bench
 * baseline. Both produce bitwise-identical out / residual / packed
 * bits (same sequential float accumulation order, same `>= 0`
 * predicate, and scale * ±1.0f is exact in IEEE arithmetic).
 */
#ifndef ROG_COMPRESS_CODEC_HPP
#define ROG_COMPRESS_CODEC_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace rog {
namespace compress {

/** By-products of a one-bit transcode over one chunk. */
struct OneBitChunkStats
{
    /** mean(|residual + grad|) — the scale the chunk ships. */
    float scale = 0.0f;

    /**
     * sum(|grad|) of the raw chunk input: the numerator of the
     * importance-metric magnitude term (core/importance), measured in
     * the same sweep instead of a separate meanAbs pass.
     */
    float sum_abs_grad = 0.0f;
};

/**
 * Fused single-pass one-bit kernel. Updates @p residual in place
 * (res += grad, then res -= q), writes the reconstruction into @p out
 * and the wire sign bits into @p packed.
 *
 * @pre residual.size() == grad.size() == out.size()
 * @pre packed.size() == packedBytes(grad.size())
 */
OneBitChunkStats onebitTranscodeFused(std::span<float> residual,
                                      std::span<const float> grad,
                                      std::span<float> out,
                                      std::span<std::uint8_t> packed);

/**
 * Reference one-bit kernel: the seed's separate passes (accumulate +
 * scale, packSignsRef, unpackSignsRef, quantize) with fresh scratch
 * allocations — the fuzz oracle and the bench baseline. Identical
 * outputs to the fused kernel, bit for bit.
 */
OneBitChunkStats onebitTranscodeRef(std::span<float> residual,
                                    std::span<const float> grad,
                                    std::span<float> out,
                                    std::span<std::uint8_t> packed);

/** Stateful gradient-block encoder/decoder. */
class Codec
{
  public:
    virtual ~Codec() = default;

    /**
     * Encode the sub-range [offset, offset + grad.size()) of gradient
     * block @p block and immediately decode into @p out (what the
     * receiver reconstructs). The block is a compression unit — in
     * this library always one parameter-matrix row of @p block_width
     * elements, independent of the *transmission* granularity. Any
     * quantization error is retained internally per block element
     * (error compensation) and folded into the next call covering it.
     *
     * @return sum(|grad|) of the chunk when the codec measures it as
     *         a transcode by-product (one-bit does, in its fused
     *         sweep; the importance metric's magnitude term), else 0.
     *
     * @pre offset + grad.size() <= block_width
     * @pre grad.size() == out.size()
     * @pre block_width is stable across calls for the same block.
     */
    virtual double transcode(std::size_t block, std::size_t block_width,
                             std::size_t offset,
                             std::span<const float> grad,
                             std::span<float> out) = 0;

    /**
     * Pre-create any per-block state (e.g. the error residual) for
     * @p block. Calling transcode without prepare still works on a
     * single thread; *concurrent* transcodes of distinct blocks are
     * only safe after every involved block has been prepared, because
     * lazy creation would mutate the shared block map mid-flight.
     * Default: no per-block state, no-op.
     */
    virtual void prepare(std::size_t block, std::size_t block_width);

    /**
     * Convenience: transcode a whole block at once.
     * @pre grad.size() == out.size()
     */
    double
    transcodeRow(std::size_t block, std::span<const float> grad,
                 std::span<float> out)
    {
        return transcode(block, grad.size(), 0, grad, out);
    }

    /** Wire payload bytes for a transmitted chunk of @p width
     *  elements (each chunk carries its own scale where needed). */
    virtual double payloadBytes(std::size_t width) const = 0;

    /** Codec name for logs and reports. */
    virtual std::string name() const = 0;
};

/** No compression: float32 on the wire, zero residual. */
class IdentityCodec : public Codec
{
  public:
    double transcode(std::size_t block, std::size_t block_width,
                     std::size_t offset, std::span<const float> grad,
                     std::span<float> out) override;
    double payloadBytes(std::size_t width) const override;
    std::string name() const override { return "identity"; }
};

/**
 * One-bit compression with error compensation [22]: per transmitted
 * chunk of a block, q = mean(|e|) * sign(e) where e = grad + residual,
 * and residual' = e - q. The wire carries one sign bit per element
 * (packed) plus a 4-byte float scale per chunk.
 */
class OneBitCodec : public Codec
{
  public:
    double transcode(std::size_t block, std::size_t block_width,
                     std::size_t offset, std::span<const float> grad,
                     std::span<float> out) override;
    void prepare(std::size_t block, std::size_t block_width) override;
    double payloadBytes(std::size_t width) const override;
    std::string name() const override { return "onebit"; }

    /** Residual magnitude for a block (diagnostics/tests). */
    double residualMeanAbs(std::size_t block) const;

  private:
    struct BlockState
    {
        std::vector<float> residual;
        std::vector<std::uint8_t> packed; //!< wire-bit scratch, whole block.
    };

    BlockState &blockFor(std::size_t block, std::size_t block_width);

    std::unordered_map<std::size_t, BlockState> blocks_;
};

/**
 * Top-k sparsification with error compensation (the "deep gradient
 * compression" family [38] the paper contrasts with one-bit): only the
 * k largest-magnitude elements of each chunk go on the wire (index +
 * float32 value each), the rest accumulate in the residual. More
 * aggressive than one-bit for very sparse gradients, but the wire cost
 * per surviving element is 8 bytes, so the break-even depends on k.
 */
class TopKCodec : public Codec
{
  public:
    /** @param keep_fraction fraction of each chunk kept, in (0, 1]. */
    explicit TopKCodec(double keep_fraction = 0.1);

    double transcode(std::size_t block, std::size_t block_width,
                     std::size_t offset, std::span<const float> grad,
                     std::span<float> out) override;
    void prepare(std::size_t block, std::size_t block_width) override;
    double payloadBytes(std::size_t width) const override;
    std::string name() const override { return "topk"; }

    double keepFraction() const { return keep_fraction_; }

  private:
    std::vector<float> &residualFor(std::size_t block,
                                    std::size_t block_width);

    double keep_fraction_;
    std::unordered_map<std::size_t, std::vector<float>> residual_;
};

/** Factory by name ("identity" | "onebit" | "topk"). */
std::unique_ptr<Codec> makeCodec(const std::string &name);

} // namespace compress
} // namespace rog

#endif // ROG_COMPRESS_CODEC_HPP
