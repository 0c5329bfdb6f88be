/**
 * @file
 * Fleet-scale parallel DES — implementation. See fleet.hpp for the
 * architecture and DESIGN.md Sec. 17 for the determinism argument.
 *
 * Structure: a sequential COORDINATOR event queue drives the worker
 * state machines (compute -> push -> pull -> gate -> next iteration)
 * and the airtime-fair fluid channel; S shard lanes, each a FIFO of
 * plain LaneOp records plus the ServerShard it feeds, absorb the
 * server-side work (each push's gradient rows and their accumulation,
 * version updates, MTA reports, deliveries into worker replicas); an op
 * carries what it reads from its push. The lanes run their ops
 * (flushShards(): parallelFor over lanes, grain 1) once per round of
 * cfg.workers push completions, at a checkpoint and at the end. Pulls
 * are sized from the coordinator's own pending-row ledger. Lanes touch
 * disjoint state (their ServerShard plus the disjoint replica rows
 * their units map to) and each runs its ops in enqueue order, so
 * neither the interleaving of lanes nor the placement of flushes
 * changes the memory image. Hence: bitwise-identical results for every
 * thread count.
 *
 * Synthetic workload: each worker descends ||x - target||^2 on its own
 * replica with hash-derived gradient noise; ATP partial pushes pick
 * mtaUnits(S, rows) rows per iteration by deterministic rotation, so
 * every row ships within ceil(rows / MTA) iterations — the coverage
 * bound the paper's MTA table guarantees probabilistically. Rows a
 * worker does not push in an iteration simply do not contribute that
 * iteration (no residual accumulation) — the convergence gap this
 * opens versus BSP is exactly the "accuracy gap" the fleet bench
 * charts.
 */
#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.hpp"
#include "common/logging.hpp"
#include "core/mta.hpp"
#include "core/server_checkpoint.hpp"
#include "core/server_shard.hpp"
#include "net/fluid_channel.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/event_queue.hpp"

namespace rog {
namespace core {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

constexpr std::uint64_t kSeedKey = 0x243F6A8885A308D3ull;

/** Deterministic hash of up to four indices, chained through
 *  splitmix64 so every coordinate perturbs every output bit. */
std::uint64_t
hashMix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
        std::uint64_t c = 0, std::uint64_t d = 0)
{
    std::uint64_t h = splitmix64(seed ^ kSeedKey);
    h = splitmix64(h ^ a);
    h = splitmix64(h ^ b);
    h = splitmix64(h ^ c);
    h = splitmix64(h ^ d);
    return h;
}

/** Map a hash to [-1, 1). */
double
signedUnit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * (1.0 / 4503599627370496.0) -
           1.0;
}

const FleetConfig &
checked(const FleetConfig &cfg)
{
    if (cfg.workers == 0 || cfg.rows == 0 || cfg.row_width == 0 ||
        cfg.iterations == 0)
        throw std::invalid_argument(
            "FleetConfig: workers/rows/row_width/iterations "
            "must be positive");
    return cfg;
}

/** One constant link per worker: the mean bandwidth spread by up to
 *  +-bandwidth_spread (capped at 0.9) with a per-worker hash. */
std::vector<net::BandwidthTrace>
linkTraces(const FleetConfig &cfg)
{
    const double spread =
        cfg.bandwidth_spread < 0.9 ? cfg.bandwidth_spread : 0.9;
    std::vector<net::BandwidthTrace> links;
    links.reserve(cfg.workers);
    for (std::size_t w = 0; w < cfg.workers; ++w)
        links.push_back(net::BandwidthTrace::constant(
            cfg.mean_bandwidth *
                (1.0 + spread * signedUnit(hashMix(cfg.seed, 1, w))),
            /*duration_seconds=*/0.1));
    return links;
}

/** The engine: one coordinator queue plus one event lane per shard. */
class FleetEngine
{
  public:
    FleetEngine(const FleetConfig &cfg, parallel::ThreadPool &pool)
        : cfg_(checked(cfg)), pool_(pool), channel_(linkTraces(cfg))
    {
        if (cfg_.staleness_threshold == 0)
            cfg_.staleness_threshold = 1; // RSP floor; 1 == BSP.
        shards_ = cfg.shards == 0 ? 1 : cfg.shards;
        if (shards_ > cfg.rows)
            shards_ = cfg.rows;
        push_rows_ = cfg.atp
                         ? mtaUnits(cfg.staleness_threshold, cfg.rows)
                         : cfg.rows;

        std::vector<std::size_t> widths(cfg.rows, cfg.row_width);
        server_ = std::make_unique<ShardedServer>(cfg.workers, widths,
                                                  shards_);
        // Lane ops address their shard directly with the local unit
        // row - first_row, so each shard must own one contiguous run
        // of rows, in row order.
        lanes_.resize(shards_);
        for (std::size_t row = 0; row < cfg.rows; ++row) {
            Lane &lane = lanes_[server_->shardOf(row)];
            if (lane.end_row == 0)
                lane.first_row = row;
            ROG_ASSERT(lane.end_row == 0 || lane.end_row == row,
                       "fleet shard rows must be contiguous");
            ROG_ASSERT(server_->localOf(row) == row - lane.first_row,
                       "fleet shard units must follow row order");
            lane.end_row = row + 1;
        }
        for (Lane &lane : lanes_)
            lane.scratch.resize(push_rows_ * cfg.row_width);
        mta_bytes_ = mtaFraction(cfg_.staleness_threshold) *
                     static_cast<double>(cfg.rows * cfg.row_width) * 4.0;
        push_bytes_ =
            static_cast<double>(push_rows_ * cfg.row_width) * 4.0 +
            cfg.header_bytes;
        row_push_seq_.assign(cfg.rows, 0);

        target_.resize(cfg.rows * cfg.row_width);
        for (std::size_t i = 0; i < target_.size(); ++i)
            target_[i] = static_cast<float>(
                signedUnit(hashMix(cfg.seed, 0x7A, i)));
        replicas_.assign(cfg.workers * target_.size(), 0.0f);

        workers_.resize(cfg.workers);
        last_pushed_.assign(cfg.workers, 0);
        pushed_count_.assign(cfg.iterations + 1, 0);
        pushed_count_[0] = cfg.workers;
    }

    FleetResult
    run()
    {
        for (std::size_t w = 0; w < cfg_.workers; ++w)
            beginIteration(w);
        while (!coord_.empty()) {
            coord_.step();
            ++coord_events_;
        }
        flushShards();

        for (std::size_t w = 0; w < cfg_.workers; ++w)
            if (!workers_[w].retired)
                throw std::runtime_error(
                    "fleet simulation deadlocked: worker never "
                    "retired");

        FleetResult r;
        r.workers = cfg_.workers;
        r.shards = shards_;
        r.sim_seconds = coord_.now();
        r.total_bytes = total_bytes_;
        r.events_processed = coord_events_;
        for (const Lane &lane : lanes_)
            r.events_processed += lane.events;
        r.iterations_completed = iterations_done_;
        r.final_metric = finalMetric();
        r.state_digest = stateDigest();
        r.checkpoint_files_written = ckpt_files_;
        r.lane_flushes = lane_flushes_;
        r.lane_ops = lane_ops_;
        return r;
    }

  private:
    enum : std::uint32_t
    {
        kTagCompute = 1,
        kTagPushDone = 2,
        kTagPullDone = 3,
        kTagApply = 4,
        kTagReport = 5,
        kTagDeliver = 6,
        kTagRetire = 7,
    };

    /** A worker's coordinator-side state. Lane ops never read it:
     *  what an op needs from its push rides in the op. */
    struct FleetWorker
    {
        std::int64_t iter = 0; //!< iteration in flight (1-based).
        bool retired = false;
        double push_start = 0.0;
        /** push_seq_ when the last deliver ops were enqueued. */
        std::uint64_t deliver_seq = 0;
    };

    /** One deferred server-side operation. Every op is enqueued at the
     *  coordinator's current time, so enqueue order is event order. An
     *  op may run after the worker's next push completed, so it carries
     *  what it reads from its push. */
    struct LaneOp
    {
        std::uint32_t kind; //!< kTagApply/Report/Deliver/Retire.
        std::uint32_t worker;
        union {
            std::int64_t iter; //!< kTagApply: the push's iteration.
            double elapsed;    //!< kTagReport: its transfer time.
        };
    };

    /** One shard lane: a FIFO of ops feeding one ServerShard, plus its
     *  event counter and log digest (combined in shard order at the
     *  end — the ordered-combine discipline). Cache-line aligned: the
     *  lanes are written by different pool threads. */
    struct alignas(64) Lane
    {
        std::vector<LaneOp> ops; //!< enqueued since the last flush.
        std::uint64_t events = 0;
        std::uint32_t crc = 0;
        std::size_t first_row = 0; //!< the shard's contiguous rows.
        std::size_t end_row = 0;
        /** An apply op's gradient rows; a deliver's pulled row. */
        std::vector<float> scratch;
    };

    // ---- deterministic hashes ----
    double
    computeDuration(std::size_t w, std::int64_t n) const
    {
        const double jitter =
            cfg_.compute_jitter < 0.9 ? cfg_.compute_jitter : 0.9;
        const double u = signedUnit(
            hashMix(cfg_.seed, 2, w, static_cast<std::uint64_t>(n)));
        const double d = cfg_.compute_seconds * (1.0 + jitter * u);
        return d > 1e-9 ? d : 1e-9;
    }

    /** First row of iteration @p n's rotation window. */
    std::size_t
    windowStart(std::int64_t n) const
    {
        return (static_cast<std::size_t>(n - 1) * push_rows_) % cfg_.rows;
    }

    /**
     * Call fn(row) for every row of the rotation window from @p start
     * that lies in [lo, hi), in window order. The window's
     * k = push_rows_ rows are at most two contiguous segments:
     * [start, min(start + k, rows)), then [0, start + k - rows). Window
     * order matters to the lane logs: with one shard the window can
     * wrap inside a lane.
     */
    template <typename Fn>
    void
    forWindowRows(std::size_t start, std::size_t lo, std::size_t hi,
                  Fn &&fn) const
    {
        const std::size_t rows = cfg_.rows;
        const std::size_t end = start + push_rows_;
        const std::size_t first_end = end < rows ? end : rows;
        for (std::size_t row = std::max(start, lo);
             row < std::min(first_end, hi); ++row)
            fn(row);
        if (end <= rows)
            return;
        for (std::size_t row = lo; row < std::min(end - rows, hi); ++row)
            fn(row);
    }

    float *
    replicaRow(std::size_t w, std::size_t row)
    {
        return replicas_.data() +
               (w * cfg_.rows + row) * cfg_.row_width;
    }

    // ---- event logs ----
    void
    logCoord(std::uint32_t tag, std::size_t w, std::int64_t n)
    {
        std::uint8_t buf[24];
        const std::uint32_t w32 = static_cast<std::uint32_t>(w);
        const double now = coord_.now();
        std::memcpy(buf, &tag, 4);
        std::memcpy(buf + 4, &w32, 4);
        std::memcpy(buf + 8, &n, 8);
        std::memcpy(buf + 16, &now, 8);
        coord_crc_ = crc32c({buf, sizeof buf}, coord_crc_);
    }

    void
    logLane(std::size_t s, std::uint32_t tag, std::size_t w,
            std::int64_t n, std::size_t row)
    {
        Lane &lane = lanes_[s];
        std::uint8_t buf[24];
        const std::uint32_t w32 = static_cast<std::uint32_t>(w);
        const std::uint32_t r32 = static_cast<std::uint32_t>(row);
        std::memcpy(buf, &tag, 4);
        std::memcpy(buf + 4, &w32, 4);
        std::memcpy(buf + 8, &n, 8);
        std::memcpy(buf + 16, &r32, 4);
        std::memcpy(buf + 20, &tag, 4);
        lane.crc = crc32c({buf, sizeof buf}, lane.crc);
        ++lane.events;
    }

    // ---- shard lanes ----
    LaneOp &
    enqueueShard(std::size_t s, std::uint32_t kind, std::size_t w)
    {
        ++pending_ops_;
        return lanes_[s].ops.emplace_back(
            LaneOp{kind, static_cast<std::uint32_t>(w), {}});
    }

    void
    runLaneOp(std::size_t s, const LaneOp &op)
    {
        const std::size_t w = op.worker;
        switch (op.kind) {
        case kTagApply:
            applyPush(s, w, op.iter);
            break;
        case kTagReport:
            // MTA reports replicate into every lane's tracker so the
            // per-shard EWMAs stay identical replicas.
            server_->shard(s).report(w, push_bytes_, op.elapsed,
                                     mta_bytes_);
            logLane(s, kTagReport, w, 0, s);
            break;
        case kTagDeliver:
            deliverPending(s, w);
            break;
        case kTagRetire:
            server_->shard(s).retireWorker(w);
            logLane(s, kTagRetire, w, 0, s);
            break;
        }
    }

    /**
     * Run every lane's ops on the pool, in enqueue order per lane.
     * Grain 1 puts each shard in its own chunk; lanes touch disjoint
     * state, so the flush result is independent of which thread drains
     * which lane, and a lane's state after its ops ran is independent
     * of how they were batched into flushes.
     */
    void
    flushShards()
    {
        if (pending_ops_ == 0)
            return;
        parallel::parallelFor(
            0, shards_, 1,
            [this](std::size_t lo, std::size_t hi) {
                for (std::size_t s = lo; s < hi; ++s) {
                    Lane &lane = lanes_[s];
                    for (const LaneOp &op : lane.ops)
                        runLaneOp(s, op);
                    lane.ops.clear();
                }
            },
            pool_);
        ++lane_flushes_;
        lane_ops_ += pending_ops_;
        pending_ops_ = 0;
    }

    // ---- airtime-fair fluid channel ----
    /** Re-arm the completion event for the channel's next finisher. */
    void
    channelRearm()
    {
        if (channel_ev_.valid()) {
            coord_.cancel(channel_ev_);
            channel_ev_ = {};
        }
        if (!channel_.empty())
            channel_ev_ = coord_.schedule(channel_.nextFinish(),
                                          [this] { onChannelFire(); });
    }

    /** Start a transfer. The caller re-arms the channel afterwards;
     *  inside a completion handler, onChannelFire does. */
    void
    channelStart(std::size_t w, bool is_pull, double bytes)
    {
        channel_.start(coord_.now(), w, bytes,
                       (static_cast<std::uint64_t>(w) << 1) |
                           (is_pull ? 1u : 0u));
        total_bytes_ += bytes;
    }

    /** The next transfer finished: drop it, run its handler, then
     *  re-arm for the rest under the new shares. */
    void
    onChannelFire()
    {
        channel_ev_ = {};
        const std::uint64_t tag = channel_.finish(coord_.now());
        const auto w = static_cast<std::size_t>(tag >> 1);
        if (tag & 1u)
            onPullComplete(w);
        else
            onPushComplete(w);
        channelRearm();
    }

    // ---- worker state machine ----
    /** Advance floor_ to the smallest last_pushed_ value any active
     *  worker still holds. Pushes only raise a worker's value and
     *  workers only leave, so floor_ never moves down and the walk is
     *  amortised O(1). Once every worker retired it rests at
     *  pushed_count_.size(), above every gate's bar. */
    void
    raiseFloor()
    {
        while (floor_ < pushed_count_.size() && pushed_count_[floor_] == 0)
            ++floor_;
    }

    /** RSP gate: every other active worker's last pushed iteration
     *  must be within the staleness threshold of @p next. For
     *  threshold >= 1 a worker's own last push never trips its gate (it
     *  pushed next - 1 >= next - threshold), so the gate is one
     *  fleet-wide floor. Reads only coordinator-owned state, never
     *  shard state. */
    bool
    gatePasses(std::int64_t next) const
    {
        return static_cast<std::int64_t>(floor_) >=
               next - static_cast<std::int64_t>(cfg_.staleness_threshold);
    }

    void
    beginIteration(std::size_t w)
    {
        FleetWorker &fw = workers_[w];
        fw.iter += 1;
        const std::int64_t n = fw.iter;
        coord_.schedule(coord_.now() + computeDuration(w, n),
                        [this, w] { onComputeDone(w); });
    }

    /** Release every gate-blocked worker whose gate now passes, in
     *  ascending worker index (the deterministic unblock order), after
     *  progress or membership changed. */
    void
    unblockScan()
    {
        released_.clear();
        std::size_t kept = 0;
        for (std::uint32_t w : blocked_) {
            if (gatePasses(workers_[w].iter + 1))
                released_.push_back(w);
            else
                blocked_[kept++] = w;
        }
        blocked_.resize(kept);
        std::sort(released_.begin(), released_.end());
        for (std::uint32_t w : released_)
            beginIteration(w);
    }

    void
    onComputeDone(std::size_t w)
    {
        FleetWorker &fw = workers_[w];
        logCoord(kTagCompute, w, fw.iter);
        fw.push_start = coord_.now();
        channelStart(w, /*is_pull=*/false, push_bytes_);
        channelRearm();
    }

    void
    onPushComplete(std::size_t w)
    {
        FleetWorker &fw = workers_[w];
        const std::int64_t n = fw.iter;
        logCoord(kTagPushDone, w, n);
        --pushed_count_[static_cast<std::size_t>(last_pushed_[w])];
        ++pushed_count_[static_cast<std::size_t>(n)];
        last_pushed_[w] = n;
        raiseFloor();

        // Apply ops: one per shard that owns a pushed row. The op
        // touches only shard s's state and w's replica rows in shard s —
        // lane-disjoint.
        const double elapsed = coord_.now() - fw.push_start;
        const std::size_t start = windowStart(n);
        for (std::size_t s = 0; s < shards_; ++s) {
            bool owns = false;
            forWindowRows(start, lanes_[s].first_row, lanes_[s].end_row,
                          [&](std::size_t) { owns = true; });
            if (owns)
                enqueueShard(s, kTagApply, w).iter = n;
            enqueueShard(s, kTagReport, w).elapsed = elapsed;
        }

        // Size the pull from the pending-row ledger, not the shards
        // (no flush). After a flush, ServerShard::hasPending(w, row)
        // holds iff a push of row ran after w's last take of row. Each
        // lane runs its ops in enqueue order, and a deliver takes every
        // pending row of its lane, so that is: the last push of row was
        // enqueued after w's last deliver ops, i.e.
        // row_push_seq_[row] > fw.deliver_seq. This push counts too.
        ++push_seq_;
        forWindowRows(start, 0, cfg_.rows, [&](std::size_t row) {
            row_push_seq_[row] = push_seq_;
        });
        std::size_t pending_rows = 0;
        for (std::uint64_t seq : row_push_seq_)
            pending_rows += seq > fw.deliver_seq ? 1 : 0;
        const double pull_bytes =
            static_cast<double>(pending_rows * cfg_.row_width) * 4.0 +
            cfg_.header_bytes;
        channelStart(w, /*is_pull=*/true, pull_bytes);

        // One flush per round of pushes bounds the queued ops.
        if (push_seq_ % cfg_.workers == 0)
            flushShards();
        unblockScan();
    }

    /**
     * Compute push @p n's gradient rows in lane @p s, then accumulate
     * them. Only w's own deliver ops write w's replica rows, and in
     * every lane the deliver of pull n - 1 precedes this op with no
     * deliver for w between, so it reads the replica w computed on.
     * Every row is computed before the first accumulate: interleaved,
     * each accumulate stalls on the row just stored.
     */
    void
    applyPush(std::size_t s, std::size_t w, std::int64_t n)
    {
        const std::size_t width = cfg_.row_width;
        const std::size_t start = windowStart(n);
        // Noise is gradient_noise * signedUnit(hashMix(seed, 3 + w, n,
        // row, j)); the links before row are hoisted by hand.
        const std::uint64_t wn = splitmix64(
            splitmix64(splitmix64(cfg_.seed ^ kSeedKey) ^ (3 + w)) ^
            static_cast<std::uint64_t>(n));
        Lane &lane = lanes_[s];
        float *g = lane.scratch.data();
        forWindowRows(start, lane.first_row, lane.end_row,
                      [&](std::size_t row) {
                          const float *x = replicaRow(w, row);
                          const float *t = target_.data() + row * width;
                          const std::uint64_t h = splitmix64(wn ^ row);
                          for (std::size_t j = 0; j < width; ++j)
                              g[j] = (x[j] - t[j]) +
                                     cfg_.gradient_noise *
                                         static_cast<float>(signedUnit(
                                             splitmix64(h ^ j)));
                          g += width;
                      });
        g = lane.scratch.data();
        ServerShard &shard = server_->shard(s);
        forWindowRows(start, lane.first_row, lane.end_row,
                      [&](std::size_t row) {
                          const std::size_t unit = row - lane.first_row;
                          shard.accumulate(unit, {g, width});
                          g += width;
                          shard.updateVersion(w, unit, n);
                          shard.noteUpdate(unit, n);
                          logLane(s, kTagApply, w, n, row);
                      });
    }

    void
    onPullComplete(std::size_t w)
    {
        FleetWorker &fw = workers_[w];
        const std::int64_t n = fw.iter;
        logCoord(kTagPullDone, w, n);

        for (std::size_t s = 0; s < shards_; ++s)
            enqueueShard(s, kTagDeliver, w);
        fw.deliver_seq = push_seq_;
        ++iterations_done_;

        if (w == 0)
            maybeCheckpoint(n);

        if (n >= static_cast<std::int64_t>(cfg_.iterations)) {
            fw.retired = true;
            --pushed_count_[static_cast<std::size_t>(last_pushed_[w])];
            raiseFloor();
            for (std::size_t s = 0; s < shards_; ++s)
                enqueueShard(s, kTagRetire, w);
            unblockScan();
            return;
        }
        if (gatePasses(n + 1))
            beginIteration(w);
        else
            blocked_.push_back(static_cast<std::uint32_t>(w));
    }

    void
    deliverPending(std::size_t s, std::size_t w)
    {
        const std::size_t width = cfg_.row_width;
        Lane &lane = lanes_[s];
        ServerShard &shard = server_->shard(s);
        float *p = lane.scratch.data();
        for (std::size_t row = lane.first_row; row < lane.end_row; ++row) {
            const std::size_t unit = row - lane.first_row;
            if (!shard.hasPending(w, unit))
                continue;
            shard.takePending(w, unit, {p, width});
            float *x = replicaRow(w, row);
            for (std::size_t j = 0; j < width; ++j)
                x[j] -= cfg_.learning_rate * p[j];
            logLane(s, kTagDeliver, w, 0, row);
        }
    }

    // ---- checkpointing ----
    void
    maybeCheckpoint(std::int64_t n)
    {
        if (cfg_.checkpoint_dir.empty() || cfg_.checkpoint_every == 0)
            return;
        if (n % static_cast<std::int64_t>(cfg_.checkpoint_every) != 0)
            return;
        flushShards(); // snapshots read shard state.
        ckpt_files_ += writeShardCheckpoints(
            cfg_.checkpoint_dir + "/fleet.rogs", *server_, n);
    }

    // ---- final accounting ----
    double
    finalMetric() const
    {
        double acc = 0.0;
        for (std::size_t w = 0; w < cfg_.workers; ++w)
            for (std::size_t i = 0; i < target_.size(); ++i) {
                const double d =
                    static_cast<double>(
                        replicas_[w * target_.size() + i]) -
                    static_cast<double>(target_[i]);
                acc += d * d;
            }
        return acc / static_cast<double>(replicas_.size());
    }

    std::uint32_t
    stateDigest() const
    {
        std::uint32_t crc = coord_crc_;
        crc = crc32c({reinterpret_cast<const std::uint8_t *>(
                          replicas_.data()),
                      replicas_.size() * sizeof(float)},
                     crc);
        for (const Lane &lane : lanes_) {
            std::uint8_t buf[12];
            std::memcpy(buf, &lane.crc, 4);
            std::memcpy(buf + 4, &lane.events, 8);
            crc = crc32c({buf, sizeof buf}, crc);
        }
        return crc;
    }

    FleetConfig cfg_;
    parallel::ThreadPool &pool_;
    std::size_t shards_ = 1;
    std::size_t push_rows_ = 0;
    double mta_bytes_ = 0.0;  //!< MTA report's byte budget.
    double push_bytes_ = 0.0; //!< every push's wire size.

    std::unique_ptr<ShardedServer> server_;
    std::vector<Lane> lanes_;
    std::size_t pending_ops_ = 0; //!< enqueued since the last flush.
    std::uint64_t lane_flushes_ = 0;
    std::uint64_t lane_ops_ = 0;

    /** Pending-row ledger: pushes are numbered from 1, and
     *  row_push_seq_[row] is the number of the last push of row. */
    std::uint64_t push_seq_ = 0;
    std::vector<std::uint64_t> row_push_seq_;

    std::vector<float> target_;
    std::vector<float> replicas_;
    std::vector<FleetWorker> workers_;
    std::vector<std::int64_t> last_pushed_;
    /** Active workers per last_pushed_ value; floor_ is the smallest
     *  value with a nonzero count (see raiseFloor). */
    std::vector<std::size_t> pushed_count_;
    std::size_t floor_ = 0;
    std::vector<std::uint32_t> blocked_;  //!< gate-blocked workers.
    std::vector<std::uint32_t> released_; //!< unblockScan scratch.

    sim::EventQueue coord_;
    std::uint64_t coord_events_ = 0;
    std::uint32_t coord_crc_ = 0;

    net::FluidChannel channel_;
    sim::EventQueue::id_type channel_ev_{};

    double total_bytes_ = 0.0;
    std::uint64_t iterations_done_ = 0;
    std::size_t ckpt_files_ = 0;
};

} // namespace

FleetResult
runFleetSimulation(const FleetConfig &cfg, parallel::ThreadPool &pool)
{
    return FleetEngine(cfg, pool).run();
}

FleetResult
runFleetSimulation(const FleetConfig &cfg)
{
    return runFleetSimulation(cfg, parallel::ThreadPool::global());
}

} // namespace core
} // namespace rog
