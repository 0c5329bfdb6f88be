/**
 * @file
 * Replays: direct calls into layers that have no seam, at the shapes
 * their workload uses. Each replay times several batches and returns
 * the median batch, so one slow batch does not move it.
 */
#include <memory>
#include <span>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "core/server_shard.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/event_queue.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace replay {
namespace {

using namespace rog;
using tensor::Tensor;

constexpr int kBatches = 7;

/** Median over kBatches of (batch seconds / @p ops_per_batch). */
template <typename F>
double
secondsPerOp(double ops_per_batch, F batch)
{
    batch(); // warm caches and lazy state.
    std::vector<double> per_op;
    for (int b = 0; b < kBatches; ++b) {
        const Clock::time_point t0 = Clock::now();
        batch();
        per_op.push_back(secondsSince(t0) / ops_per_batch);
    }
    return median(per_op);
}

Tensor
randomTensor(std::size_t rows, std::size_t cols, Rng &rng)
{
    Tensor t(rows, cols);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

/** Forward and backward GEMM operands of the CRUDA classifier at the
 *  paper minibatch: (32 -> 96 -> 96 -> 48 -> 20), batch 20. */
struct CrudaGemms
{
    static constexpr std::size_t kBatch = 20;

    struct Layer
    {
        Tensor x, w, y, dy, dw, dx;
    };
    std::vector<Layer> layers;

    CrudaGemms()
    {
        Rng rng(17);
        const std::size_t dims[] = {32, 96, 96, 48, 20};
        for (std::size_t i = 0; i + 1 < std::size(dims); ++i) {
            const std::size_t in = dims[i];
            const std::size_t out = dims[i + 1];
            layers.push_back({randomTensor(kBatch, in, rng),
                              randomTensor(in, out, rng),
                              Tensor(kBatch, out),
                              randomTensor(kBatch, out, rng),
                              Tensor(in, out), Tensor(kBatch, in)});
        }
    }

    /** y = x @ w, dw = x^T @ dy, dx = dy @ w^T through tensor::ops. */
    void
    viaOps()
    {
        for (Layer &l : layers) {
            tensor::matmul(l.x, l.w, l.y);
            tensor::matmulTransA(l.x, l.dy, l.dw);
            tensor::matmulTransB(l.dy, l.w, l.dx);
        }
    }

    /** The same products through the GEMM engine on @p pool. */
    void
    viaPool(parallel::ThreadPool &pool)
    {
        using tensor::gemm::Operand;
        const tensor::gemm::Tier tier = tensor::gemm::activeTier();
        for (Layer &l : layers) {
            const std::size_t b = kBatch;
            const std::size_t in = l.w.rows();
            const std::size_t out = l.w.cols();
            tensor::gemm::run(tier, Operand{l.x.data(), in, 1},
                              Operand{l.w.data(), out, 1}, l.y.data(), out,
                              b, out, in, pool);
            tensor::gemm::run(tier, Operand{l.x.data(), 1, in},
                              Operand{l.dy.data(), out, 1}, l.dw.data(),
                              out, in, out, b, pool);
            tensor::gemm::run(tier, Operand{l.dy.data(), out, 1},
                              Operand{l.w.data(), 1, out}, l.dx.data(), in,
                              b, in, out, pool);
        }
    }
};

constexpr int kGemmSetsPerBatch = 400;

double
gemmSetSeconds(parallel::ThreadPool &pool)
{
    CrudaGemms g;
    return secondsPerOp(kGemmSetsPerBatch, [&] {
        for (int i = 0; i < kGemmSetsPerBatch; ++i)
            g.viaPool(pool);
    });
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

double
matmulUs()
{
    CrudaGemms g;
    return 1e6 * secondsPerOp(kGemmSetsPerBatch, [&] {
               for (int i = 0; i < kGemmSetsPerBatch; ++i)
                   g.viaOps();
           });
}

double
matmul2tSpeedup()
{
    parallel::ThreadPool one(1);
    parallel::ThreadPool two(2);
    return gemmSetSeconds(one) / gemmSetSeconds(two);
}

double
transcodeNsPerRow(nn::Model &model)
{
    std::vector<std::size_t> row_widths;
    for (nn::Parameter *p : model.parameters())
        row_widths.insert(row_widths.end(), p->value.rows(), p->value.cols());
    std::unique_ptr<compress::Codec> codec = compress::makeCodec("onebit");
    Rng rng(29);
    std::vector<std::vector<float>> grads;
    std::vector<std::vector<float>> outs;
    for (std::size_t r = 0; r < row_widths.size(); ++r) {
        codec->prepare(r, row_widths[r]);
        grads.emplace_back(row_widths[r]);
        for (float &g : grads.back())
            g = static_cast<float>(rng.uniform(-1.0, 1.0));
        outs.emplace_back(row_widths[r]);
    }
    constexpr int kSweeps = 200;
    const double rows_per_batch =
        static_cast<double>(kSweeps * row_widths.size());
    return 1e9 * secondsPerOp(rows_per_batch, [&] {
               for (int s = 0; s < kSweeps; ++s)
                   for (std::size_t r = 0; r < grads.size(); ++r)
                       codec->transcodeRow(r, grads[r], outs[r]);
           });
}

double
eventCoreNsPerOp(std::size_t depth)
{
    // The coordinator's mix: every schedule carries a 48-byte capture,
    // about 5 in 8 schedules cancel a pending (sometimes already fired)
    // event, and steps keep the pending set at the fleet's depth.
    std::size_t cap = 1;
    while (cap < depth)
        cap <<= 1;
    const std::size_t iters = cap * 64;
    std::uint64_t ops = 0;
    std::uint64_t sink = 0;
    const auto churn = [&] {
        sim::EventQueue q;
        std::vector<sim::EventQueue::id_type> ring(cap);
        const std::size_t mask = cap - 1;
        std::uint64_t h = 0x1F2E3D4C5B6A7988ull;
        ops = 0;
        for (std::size_t i = 0; i < iters; ++i) {
            h = splitmix64(h);
            const double t =
                q.now() + 1e-9 + static_cast<double>(h >> 44) * 1e-8;
            const std::uint64_t a = h, b = i, c = h ^ i, d = h + i,
                                e = h - i;
            std::uint64_t *p = &sink;
            ring[i & mask] = q.schedule(
                t, [p, a, b, c, d, e] { *p += a ^ b ^ c ^ d ^ e; });
            ++ops;
            if ((h & 7u) < 5u) {
                q.cancel(ring[(h >> 8) & mask]);
                ++ops;
            }
            while (q.size() > cap) {
                q.step();
                ++ops;
            }
        }
        while (q.step())
            ++ops;
    };
    churn(); // sets ops; the mix is deterministic, so it repeats.
    return 1e9 * secondsPerOp(static_cast<double>(ops), churn);
}

double
shardApplyNsPerRow()
{
    constexpr std::size_t kWorkers = 1024;
    constexpr std::size_t kRows = 64;
    constexpr std::size_t kWidth = 8;
    core::ShardedServer server(
        kWorkers, std::vector<std::size_t>(kRows, kWidth), 8);
    std::vector<float> grad(kWidth, 0.001f);
    constexpr std::size_t kApplies = 4096;
    std::int64_t n = 1;
    std::size_t w = 0;
    return 1e9 * secondsPerOp(kApplies, [&] {
               for (std::size_t i = 0; i < kApplies; ++i) {
                   const std::size_t row = i % kRows;
                   server.accumulate(row, grad);
                   server.updateVersion(w, row, n);
                   server.noteUpdate(row, n);
                   if (row + 1 == kRows) {
                       w = (w + 1) % kWorkers;
                       ++n;
                   }
               }
           });
}

double
forkJoinUs()
{
    constexpr std::size_t kShards = 8;
    parallel::ThreadPool pool(2);
    std::vector<std::uint64_t> lane(kShards * 8, 0); // 64 B apart.
    constexpr int kRuns = 2000;
    return 1e6 * secondsPerOp(kRuns, [&] {
               for (int i = 0; i < kRuns; ++i)
                   pool.run(kShards, [&](std::size_t s) { ++lane[s * 8]; });
           });
}

double
crc32cNsPerKib()
{
    // TransportConfig's default chunk: the CRC unit of every frame.
    constexpr std::size_t kChunk = 16 * 1024;
    std::vector<std::uint8_t> chunk(kChunk);
    Rng rng(31);
    for (std::uint8_t &b : chunk)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    constexpr int kChunks = 512;
    std::uint32_t crc = 0;
    const double per_chunk = secondsPerOp(kChunks, [&] {
        for (int i = 0; i < kChunks; ++i)
            crc = crc32c(chunk, crc);
    });
    return 1e9 * per_chunk / (kChunk / 1024.0);
}

} // namespace replay
} // namespace perfbench
