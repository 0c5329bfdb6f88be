/**
 * @file
 * Fleet-scale parallel DES — implementation. See fleet.hpp for the
 * architecture and DESIGN.md Sec. 17 for the determinism argument.
 *
 * Structure: a sequential COORDINATOR event queue drives the worker
 * state machines (compute -> push -> pull -> gate -> next iteration)
 * and the airtime-fair fluid channel; S shard lanes, each a private
 * event queue plus the ServerShard it feeds, absorb the server-side
 * work (gradient accumulation, version updates, MTA reports,
 * deliveries into worker replicas). The coordinator only ever READS
 * shard state after flushShards(), which drains every lane on the
 * thread pool (parallelFor, grain 1) — lanes touch disjoint state
 * (their ServerShard plus the disjoint replica rows their units map
 * to), so any interleaving of lanes yields the same memory image, and
 * the flush points themselves are a pure function of the event
 * timeline. Hence: bitwise-identical results for every thread count
 * and for both event-queue implementations.
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
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/crc32c.hpp"
#include "core/mta.hpp"
#include "core/server_checkpoint.hpp"
#include "core/server_shard.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_queue_ref.hpp"

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

/** Deterministic hash of up to four indices, chained through
 *  splitmix64 so every coordinate perturbs every output bit. */
std::uint64_t
hashMix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
        std::uint64_t c = 0, std::uint64_t d = 0)
{
    std::uint64_t h = splitmix64(seed ^ 0x243F6A8885A308D3ull);
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

/**
 * The engine, templated over the event-queue type so the bench can run
 * the identical simulation on the heap event core (sim::EventQueue)
 * and the std::map baseline (sim::MapEventQueue). Both produce the
 * same state_digest — the fuzz oracle's firing-order equivalence,
 * end to end.
 */
template <class Q> class FleetEngine
{
  public:
    FleetEngine(const FleetConfig &cfg, parallel::ThreadPool &pool)
        : cfg_(cfg), pool_(pool)
    {
        if (cfg.workers == 0 || cfg.rows == 0 || cfg.row_width == 0 ||
            cfg.iterations == 0)
            throw std::invalid_argument(
                "FleetConfig: workers/rows/row_width/iterations "
                "must be positive");
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
        for (std::size_t s = 0; s < shards_; ++s)
            lanes_.emplace_back();

        target_.resize(cfg.rows * cfg.row_width);
        for (std::size_t i = 0; i < target_.size(); ++i)
            target_[i] = static_cast<float>(
                signedUnit(hashMix(cfg.seed, 0x7A, i)));
        replicas_.assign(cfg.workers * target_.size(), 0.0f);

        workers_.resize(cfg.workers);
        const double spread =
            cfg.bandwidth_spread < 0.9 ? cfg.bandwidth_spread : 0.9;
        for (std::size_t w = 0; w < cfg.workers; ++w)
            workers_[w].link_rate =
                cfg.mean_bandwidth *
                (1.0 + spread * signedUnit(hashMix(cfg.seed, 1, w)));
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

    struct FleetWorker
    {
        std::int64_t iter = 0; //!< iteration in flight (1-based).
        bool retired = false;
        double link_rate = 0.0;
        double push_start = 0.0;
        BufferPool::Lease<float> push_buf;
        BufferPool::Lease<std::uint8_t> pull_buf;
    };

    /** One shard lane: a private event queue feeding one ServerShard,
     *  plus its event counter and log digest (combined in shard order
     *  at the end — the ordered-combine discipline). */
    struct Lane
    {
        Q queue;
        std::uint64_t events = 0;
        std::uint32_t crc = 0;
    };

    struct Transfer
    {
        std::uint32_t worker = 0;
        bool is_pull = false;
        std::uint64_t seq = 0; //!< start order (completion tie-break).
        double remaining = 0.0;
        double rate = 0.0;
        /** rate / n, n the active count at the last settle; 0 until the
         *  first settle after the transfer started. */
        double share = 0.0;
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

    float
    gradientNoise(std::size_t w, std::int64_t n, std::size_t row,
                  std::size_t j) const
    {
        return cfg_.gradient_noise *
               static_cast<float>(signedUnit(
                   hashMix(cfg_.seed, 3 + w,
                           static_cast<std::uint64_t>(n), row, j)));
    }

    /** Global row pushed as the @p i-th element of iteration @p n's
     *  rotation window. */
    std::size_t
    rotationRow(std::int64_t n, std::size_t i) const
    {
        const std::size_t start =
            (static_cast<std::size_t>(n - 1) * push_rows_) % cfg_.rows;
        return (start + i) % cfg_.rows;
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
    template <typename F>
    void
    enqueueShard(std::size_t s, F &&op)
    {
        lanes_[s].queue.schedule(coord_.now(), std::forward<F>(op));
        ++pending_ops_;
    }

    /**
     * Drain every shard lane on the pool. Grain 1 puts each shard in
     * its own chunk; lanes touch disjoint state, so the flush result
     * is independent of which thread drains which lane.
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
                    while (!lane.queue.empty())
                        lane.queue.step();
                }
            },
            pool_);
        pending_ops_ = 0;
    }

    // ---- airtime-fair fluid channel ----
    /**
     * One pass over the active transfers. Each moves forward to now at
     * the share it was given by the previous settle (a transfer started
     * since then has share 0 and stays put), takes its share under the
     * current count, and gets a finish time; the completion event is
     * re-armed for the transfer that finishes first (ties by start
     * order).
     */
    void
    channelSettle()
    {
        if (channel_ev_.valid()) {
            coord_.cancel(channel_ev_);
            channel_ev_ = {};
        }
        const double dt = coord_.now() - channel_last_;
        channel_last_ = coord_.now();
        if (active_.empty())
            return;
        const double n = static_cast<double>(active_.size());
        double best_fin = 0.0;
        std::uint64_t best_seq = 0;
        for (std::size_t i = 0; i < active_.size(); ++i) {
            Transfer &tr = active_[i];
            if (dt != 0.0)
                tr.remaining -= dt * tr.share;
            tr.share = tr.rate / n;
            const double rem = tr.remaining > 0.0 ? tr.remaining : 0.0;
            const double fin = rem / tr.share;
            if (best_seq == 0 || fin < best_fin ||
                (fin == best_fin && tr.seq < best_seq)) {
                best_fin = fin;
                best_seq = tr.seq;
                channel_next_ = i;
            }
        }
        channel_ev_ = coord_.schedule(coord_.now() + best_fin,
                                      [this] { onChannelFire(); });
    }

    /** Append a transfer. The caller settles the channel afterwards;
     *  inside a completion handler, onChannelFire does. */
    void
    channelStart(std::size_t w, bool is_pull, double bytes)
    {
        Transfer tr;
        tr.worker = static_cast<std::uint32_t>(w);
        tr.is_pull = is_pull;
        tr.seq = next_transfer_seq_++;
        tr.remaining = bytes;
        tr.rate = workers_[w].link_rate;
        active_.push_back(tr);
        total_bytes_ += bytes;
    }

    /** The transfer channel_next_ finished: drop it, run its handler,
     *  then settle the rest under the new shares. */
    void
    onChannelFire()
    {
        channel_ev_ = {};
        const Transfer done = active_[channel_next_];
        active_[channel_next_] = active_.back();
        active_.pop_back();
        if (done.is_pull)
            onPullComplete(done.worker);
        else
            onPushComplete(done.worker);
        channelSettle();
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
        // The gradient reads this worker's replica rows, which pending
        // deliver ops may still own — settle the lanes first.
        flushShards();

        FleetWorker &fw = workers_[w];
        const std::int64_t n = fw.iter;
        logCoord(kTagCompute, w, n);

        const std::size_t width = cfg_.row_width;
        fw.push_buf =
            BufferPool::global().leaseFloats(push_rows_ * width);
        for (std::size_t i = 0; i < push_rows_; ++i) {
            const std::size_t row = rotationRow(n, i);
            const float *x = replicaRow(w, row);
            const float *t = target_.data() + row * width;
            float *g = fw.push_buf.data() + i * width;
            for (std::size_t j = 0; j < width; ++j)
                g[j] = (x[j] - t[j]) + gradientNoise(w, n, row, j);
        }

        fw.push_start = coord_.now();
        const double bytes =
            static_cast<double>(push_rows_ * width) * 4.0 +
            cfg_.header_bytes;
        channelStart(w, /*is_pull=*/false, bytes);
        channelSettle();
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

        const double bytes =
            static_cast<double>(push_rows_ * cfg_.row_width) * 4.0 +
            cfg_.header_bytes;
        const double elapsed = coord_.now() - fw.push_start;
        const double mta_bytes =
            mtaFraction(cfg_.staleness_threshold) *
            static_cast<double>(cfg_.rows * cfg_.row_width) * 4.0;

        // Apply ops: one per shard that owns a pushed row. The op
        // routes through the ShardedServer facade, which touches only
        // shard s's state for units it owns — lane-disjoint.
        for (std::size_t s = 0; s < shards_; ++s) {
            bool owns = false;
            for (std::size_t i = 0; i < push_rows_ && !owns; ++i)
                owns = server_->shardOf(rotationRow(n, i)) == s;
            if (owns)
                enqueueShard(s, [this, s, w, n] {
                    applyPush(s, w, n);
                });
            // MTA reports replicate into every lane's tracker so the
            // per-shard EWMAs stay identical replicas.
            enqueueShard(s, [this, s, w, bytes, elapsed, mta_bytes] {
                server_->shard(s).report(w, bytes, elapsed, mta_bytes);
                logLane(s, kTagReport, w, 0, s);
            });
        }

        // Reading the pending-row count is a shard-state read: flush
        // first (this also settles the apply ops just enqueued, after
        // which the push staging lease can recycle).
        flushShards();
        fw.push_buf.release();

        std::size_t pending_rows = 0;
        for (std::size_t row = 0; row < cfg_.rows; ++row)
            if (server_->hasPending(w, row))
                ++pending_rows;
        const double pull_bytes =
            static_cast<double>(pending_rows * cfg_.row_width) * 4.0 +
            cfg_.header_bytes;
        fw.pull_buf = BufferPool::global().leaseBytes(
            static_cast<std::size_t>(pull_bytes));
        channelStart(w, /*is_pull=*/true, pull_bytes);

        unblockScan();
    }

    void
    applyPush(std::size_t s, std::size_t w, std::int64_t n)
    {
        const std::size_t width = cfg_.row_width;
        const float *buf = workers_[w].push_buf.data();
        for (std::size_t i = 0; i < push_rows_; ++i) {
            const std::size_t row = rotationRow(n, i);
            if (server_->shardOf(row) != s)
                continue;
            server_->accumulate(
                row, std::span<const float>(buf + i * width, width));
            server_->updateVersion(w, row, n);
            server_->noteUpdate(row, n);
            logLane(s, kTagApply, w, n, row);
        }
    }

    void
    onPullComplete(std::size_t w)
    {
        FleetWorker &fw = workers_[w];
        const std::int64_t n = fw.iter;
        logCoord(kTagPullDone, w, n);
        fw.pull_buf.release();

        for (std::size_t s = 0; s < shards_; ++s)
            enqueueShard(s, [this, s, w] { deliverPending(s, w); });
        ++iterations_done_;

        if (w == 0)
            maybeCheckpoint(n);

        if (n >= static_cast<std::int64_t>(cfg_.iterations)) {
            fw.retired = true;
            --pushed_count_[static_cast<std::size_t>(last_pushed_[w])];
            raiseFloor();
            for (std::size_t s = 0; s < shards_; ++s)
                enqueueShard(s, [this, s, w] {
                    server_->shard(s).retireWorker(w);
                    logLane(s, kTagRetire, w, 0, s);
                });
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
        for (std::size_t row = 0; row < cfg_.rows; ++row) {
            if (server_->shardOf(row) != s ||
                !server_->hasPending(w, row))
                continue;
            std::span<float> p = server_->pending(w, row);
            float *x = replicaRow(w, row);
            for (std::size_t j = 0; j < width; ++j)
                x[j] -= cfg_.learning_rate * p[j];
            server_->clearPending(w, row);
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
        for (std::size_t s = 0; s < shards_; ++s) {
            ServerCheckpoint ckpt;
            ckpt.iteration = n;
            ckpt.versions = server_->shard(s).versionSnapshot();
            ckpt.server = server_->shard(s).serverSnapshot();
            ckpt.tracker = server_->shard(s).trackerSnapshot();
            std::string path = cfg_.checkpoint_dir + "/fleet.rogs";
            if (s != 0)
                path += ".shard" + std::to_string(s);
            writeServerCheckpointFile(path, ckpt);
            ++ckpt_files_;
        }
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

    std::unique_ptr<ShardedServer> server_;
    std::deque<Lane> lanes_; //!< deque: Q is pinned (non-movable).
    std::size_t pending_ops_ = 0;

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

    Q coord_;
    std::uint64_t coord_events_ = 0;
    std::uint32_t coord_crc_ = 0;

    std::vector<Transfer> active_;
    typename Q::id_type channel_ev_{};
    std::size_t channel_next_ = 0; //!< active_ index of the finisher.
    std::uint64_t next_transfer_seq_ = 1;
    double channel_last_ = 0.0;

    double total_bytes_ = 0.0;
    std::uint64_t iterations_done_ = 0;
    std::size_t ckpt_files_ = 0;
};

void
fillPoolDeltas(FleetResult &r, const BufferPool::Stats &before,
               const BufferPool::Stats &after)
{
    r.pool_leases = after.leases - before.leases;
    r.pool_reuses = after.reuses - before.reuses;
    r.pool_allocations = after.allocations - before.allocations;
    r.pool_hit_rate =
        r.pool_leases == 0
            ? 0.0
            : static_cast<double>(r.pool_reuses) /
                  static_cast<double>(r.pool_leases);
}

} // namespace

FleetResult
runFleetSimulation(const FleetConfig &cfg, parallel::ThreadPool &pool)
{
    const BufferPool::Stats before = BufferPool::global().stats();
    FleetResult r;
    if (cfg.use_map_queue)
        r = FleetEngine<sim::MapEventQueue>(cfg, pool).run();
    else
        r = FleetEngine<sim::EventQueue>(cfg, pool).run();
    fillPoolDeltas(r, before, BufferPool::global().stats());
    return r;
}

FleetResult
runFleetSimulation(const FleetConfig &cfg)
{
    return runFleetSimulation(cfg, parallel::ThreadPool::global());
}

} // namespace core
} // namespace rog
