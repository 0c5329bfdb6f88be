#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/buffer_pool.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "core/flat_model.hpp"
#include "core/importance.hpp"
#include "core/auto_threshold.hpp"
#include "core/dynamic_batching.hpp"
#include "core/mta.hpp"
#include "core/server_checkpoint.hpp"
#include "core/server_shard.hpp"
#include "data/dataset.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_checker.hpp"
#include "net/channel.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/energy.hpp"
#include "sim/process.hpp"
#include "tensor/ops.hpp"

namespace rog {
namespace core {

void
RunResult::meanTimeComposition(double &compute, double &comm,
                               double &stall) const
{
    compute = comm = stall = 0.0;
    if (iterations.empty())
        return;
    for (const auto &r : iterations) {
        compute += r.compute_s;
        comm += r.comm_s;
        stall += r.stall_s;
    }
    const auto n = static_cast<double>(iterations.size());
    compute /= n;
    comm /= n;
    stall /= n;
}

double
RunResult::meanEnergyJoules() const
{
    if (worker_energy_j.empty())
        return 0.0;
    double s = 0.0;
    for (double e : worker_energy_j)
        s += e;
    return s / static_cast<double>(worker_energy_j.size());
}

namespace {

/** Framing bytes added to every bulk push or pull (Sec. V). */
constexpr double kTransferHeaderBytes = 16.0;

/** Wire bytes of unit @p u: its index tag plus one codec payload per
 *  row chunk (each chunk carries its own scale, per [22]'s block-wise
 *  compression). */
double
unitWireBytes(const RowPartition &partition, const compress::Codec &codec,
              std::size_t u)
{
    double bytes = partition.perUnitOverheadBytes();
    for (const RowChunk &c : partition.chunks(u))
        bytes += codec.payloadBytes(c.count);
    return bytes;
}

/** Everything one simulated robot owns. */
struct WorkerContext
{
    std::size_t id = 0;
    std::unique_ptr<nn::Model> model;
    std::unique_ptr<FlatModel> flat;
    std::unique_ptr<nn::SgdMomentum> opt;
    std::unique_ptr<data::BatchSampler> sampler;
    std::unique_ptr<compress::Codec> push_codec; //!< worker-side state.
    std::unique_ptr<compress::Codec> pull_codec; //!< server-side state.
    std::unique_ptr<sim::EnergyMeter> meter;
    std::vector<std::vector<float>> accum;  //!< g' per unit (Algo 1).
    std::vector<std::int64_t> push_iter;    //!< iters per unit.
    Rng rng{0};
    std::size_t cur_iter = 0;
    bool done = false;

    // Churn (fault injection): a crashed worker discards its in-flight
    // rows and either waits for rejoin_time or leaves for good; a
    // leaving worker finishes its current iteration first.
    bool crashed = false;
    bool leaving = false;
    double rejoin_time = std::numeric_limits<double>::infinity();

    // Heterogeneity (dynamic batching).
    std::size_t batch_size = 0;
    double compute_seconds = 0.0;

    // Pull bookkeeping: the pull runs as its own process (joined
    // inline normally; overlapped with compute under pipeline_pull)
    // and deposits its totals here for the next record that drains it.
    std::unique_ptr<sim::Condition> pull_cond;
    bool pull_in_flight = false;
    double carried_pull_comm_s = 0.0;
    double carried_bytes_pulled = 0.0;
    std::size_t carried_units_pulled = 0;
};

/** One engine instance == one training run. */
class Engine
{
  public:
    Engine(Workload &workload, const EngineConfig &cfg,
           const NetworkSetup &network);
    ~Engine();

    RunResult run();

  private:
    sim::Process workerProcess(WorkerContext &w);

    /** One pull round (Algo 2 lines 10-13) as a detached process;
     *  deposits totals into w.carried_* and notifies w.pull_cond. */
    sim::Process pullProcess(WorkerContext &w);

    void computeGradients(WorkerContext &w);
    void accumulateGradients(WorkerContext &w);
    std::vector<std::size_t> rankPushOrder(WorkerContext &w,
                                           std::size_t iteration,
                                           std::size_t threshold,
                                           std::size_t &forced);

    /** Staleness threshold in force for @p worker right now. */
    std::size_t currentThreshold(std::size_t worker) const;

    /**
     * Transcode one synchronization unit through @p codec, blocking at
     * matrix-row boundaries: compression blocks follow [22]'s
     * block-wise scheme regardless of the transmission granularity.
     *
     * @return sum(|grad|) over the unit as measured inside the codec's
     *         fused sweep (see Codec::transcode); 0.0 for codecs that
     *         do not record it.
     */
    double transcodeUnit(compress::Codec &codec, FlatModel &flat,
                         std::size_t unit_idx, std::span<const float> in,
                         std::span<float> out);
    void checkpoint(WorkerContext &w, std::size_t iteration);
    std::int64_t stalenessBehind(const WorkerContext &w) const;

    // Churn event handlers (fired by the fault injector) and the
    // rejoin resync performed inside the worker's own coroutine.
    void onCrashEvent(const fault::ChurnEvent &e);
    void onDetectEvent(const fault::ChurnEvent &e);
    void onLeaveEvent(const fault::ChurnEvent &e);
    void rejoinResync(WorkerContext &w, std::size_t &n);

    // Crash-consistent server recovery.
    void maybeCheckpointServer(std::int64_t iter);
    void serverCrashRecover(std::int64_t crash_iter);

    Workload &workload_;
    EngineConfig cfg_;

    // Declaration order doubles as teardown order (reverse): the
    // channel and condition destroy any still-suspended process frames
    // while meters/models/sim are alive; sim is destroyed last.
    sim::Simulation sim_;
    std::unique_ptr<RowPartition> partition_;
    // Contiguous worker arena: reserved once, never reallocated, so
    // the WorkerContext& held by suspended coroutines stay valid.
    std::vector<WorkerContext> workers_;
    std::unique_ptr<ShardedServer> server_;
    std::unique_ptr<FlownScheduler> flown_;
    std::unique_ptr<AutoThresholdController> auto_ctrl_;
    std::vector<double> unit_bytes_;  //!< wire bytes per unit.
    std::vector<double> chunk_magnitude_; //!< transcodeUnit scratch.
    RunResult result_;
    std::size_t finished_workers_ = 0;
    Rng rng_;
    std::unique_ptr<sim::Condition> version_cond_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::vector<std::int64_t> pending_server_crashes_; //!< ascending.
    std::vector<ServerCheckpoint> genesis_; //!< pre-run, per shard.
    std::int64_t last_checkpoint_iter_ = -1; //!< -1 = none on disk.
    std::unique_ptr<net::Channel> channel_;
};

Engine::Engine(Workload &workload, const EngineConfig &cfg,
               const NetworkSetup &network)
    : workload_(workload), cfg_(cfg), rng_(cfg.seed)
{
    const std::size_t num_workers = workload.workers();
    ROG_ASSERT(network.link_traces.size() == num_workers,
               "need one link trace per worker, got ",
               network.link_traces.size(), " for ", num_workers);
    ROG_ASSERT(cfg.iterations > 0, "need at least one iteration");
    ROG_ASSERT(cfg.system.staleness_threshold >= 1,
               "staleness threshold must be >= 1");

    result_.system = cfg.system.name;
    result_.workers = num_workers;
    result_.worker_iterations.assign(num_workers, 0);
    result_.worker_energy_j.assign(num_workers, 0.0);
    result_.worker_compute_s.assign(num_workers, 0.0);
    result_.worker_comm_s.assign(num_workers, 0.0);
    result_.worker_stall_s.assign(num_workers, 0.0);

    workers_.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) {
        WorkerContext &w = workers_.emplace_back();
        w.id = i;
        w.model = workload.buildReplica();
        w.flat = std::make_unique<FlatModel>(*w.model);
        w.opt = std::make_unique<nn::SgdMomentum>(
            *w.model, workload.optimizerConfig());
        w.sampler = std::make_unique<data::BatchSampler>(
            workload.makeSampler(i));
        w.push_codec = compress::makeCodec(cfg.codec);
        w.pull_codec = compress::makeCodec(cfg.codec);
        w.meter = std::make_unique<sim::EnergyMeter>(
            sim_, cfg.profile.power);
        w.rng = rng_.fork();
        w.pull_cond = std::make_unique<sim::Condition>(sim_);
    }

    // Per-worker batch sizes and compute times. Heterogeneous teams
    // split the global batch with dynamic batching [49] (or uniformly
    // for the ablation); homogeneous teams charge the profile's fixed
    // compute time for the workload's batch size.
    if (!cfg.heterogeneous_seconds_per_sample.empty()) {
        ROG_ASSERT(cfg.heterogeneous_seconds_per_sample.size() ==
                       num_workers,
                   "need one compute speed per worker");
        const std::size_t total_batch =
            workload.batchSize() * num_workers;
        const BatchAssignment assignment = cfg.dynamic_batching
            ? assignDynamicBatches(cfg.heterogeneous_seconds_per_sample,
                                   total_batch)
            : assignUniformBatches(cfg.heterogeneous_seconds_per_sample,
                                   total_batch);
        for (std::size_t i = 0; i < num_workers; ++i) {
            workers_[i].batch_size = assignment.batch_sizes[i];
            workers_[i].compute_seconds =
                assignment.compute_seconds[i] * cfg.profile.batch_scale +
                cfg.profile.compress_seconds;
        }
    } else {
        for (auto &w : workers_) {
            w.batch_size = workload.batchSize();
            w.compute_seconds = cfg.profile.iterationComputeSeconds();
        }
    }

    partition_ = std::make_unique<RowPartition>(
        *workers_[0].flat, cfg.system.granularity);
    const std::size_t units = partition_->unitCount();
    result_.total_units = units;

    for (auto &w : workers_) {
        w.accum.resize(units);
        for (std::size_t u = 0; u < units; ++u)
            w.accum[u].assign(partition_->unit(u).width, 0.0f);
        w.push_iter.assign(units, 0);
    }

    server_ = std::make_unique<ShardedServer>(num_workers, *partition_,
                                              cfg.server_shards);
    result_.server_shards = server_->shardCount();
    if (cfg.system.flown_dynamic) {
        flown_ = std::make_unique<FlownScheduler>(num_workers,
                                                  cfg.system.flown);
    }
    if (cfg.auto_threshold) {
        AutoThresholdConfig at;
        at.initial_threshold =
            std::max<std::size_t>(2, cfg.system.staleness_threshold);
        auto_ctrl_ = std::make_unique<AutoThresholdController>(at);
    }

    auto sizer = compress::makeCodec(cfg.codec);
    unit_bytes_.resize(units);
    for (std::size_t u = 0; u < units; ++u)
        unit_bytes_[u] = unitWireBytes(*partition_, *sizer, u);

    version_cond_ = std::make_unique<sim::Condition>(sim_);

    if (cfg.fault_plan) {
        for (const auto &e : cfg.fault_plan->server_crashes) {
            ROG_ASSERT(e.at_iter <=
                           static_cast<std::int64_t>(cfg.iterations),
                       "server crash at iteration ", e.at_iter,
                       " beyond the ", cfg.iterations, "-iteration run");
            pending_server_crashes_.push_back(e.at_iter);
        }
        std::sort(pending_server_crashes_.begin(),
                  pending_server_crashes_.end());
    }
    if (!pending_server_crashes_.empty()) {
        // A crash before the first checkpoint recovers to this.
        genesis_.resize(server_->shardCount());
        for (std::size_t s = 0; s < server_->shardCount(); ++s) {
            genesis_[s].iteration = 0;
            genesis_[s].msg_seq = 0;
            genesis_[s].versions = server_->shard(s).versionSnapshot();
            genesis_[s].server = server_->shard(s).serverSnapshot();
            genesis_[s].tracker = server_->shard(s).trackerSnapshot();
        }
    }

    // Fault injection: bake the plan's link blackouts / bandwidth
    // collapses into the traces, install the per-transfer policy, and
    // schedule the churn events.
    std::vector<net::BandwidthTrace> traces = network.link_traces;
    if (cfg.fault_plan) {
        const fault::FaultPlan &plan = *cfg.fault_plan;
        plan.validate();
        for (const auto &f : plan.link_faults)
            ROG_ASSERT(f.link < traces.size(),
                       "fault plan names link ", f.link, " but the run "
                       "has ", traces.size());
        // Transfers are bulk flows: one can be truncated or cut, but
        // there is no frame to corrupt or duplicate.
        for (const auto &r : plan.transfer_faults)
            ROG_ASSERT(!(r.corrupt || r.duplicate),
                       "the engine cannot honour fault rule '",
                       r.corrupt ? "corrupt" : "duplicate",
                       " link=", r.link, " at=", r.at_s,
                       "': only the node roles frame messages");
        for (const auto &e : plan.churn)
            ROG_ASSERT(e.worker < num_workers,
                       "fault plan names worker ", e.worker,
                       " but the run has ", num_workers);
        if (!plan.link_faults.empty()) {
            double horizon = plan.maxLinkFaultEnd() + 1.0;
            if (std::isfinite(cfg.time_horizon_seconds))
                horizon = std::max(horizon, cfg.time_horizon_seconds);
            for (std::size_t l = 0; l < traces.size(); ++l)
                traces[l] = fault::applyLinkFaults(
                    traces[l], plan.link_faults, l, horizon);
        }
    }
    channel_ = std::make_unique<net::Channel>(sim_, std::move(traces));
    if (cfg.fault_plan) {
        injector_ =
            std::make_unique<fault::FaultInjector>(sim_,
                                                   *cfg.fault_plan);
        injector_->attach(*channel_);
        fault::ChurnHooks hooks;
        hooks.on_crash = [this](const fault::ChurnEvent &e) {
            onCrashEvent(e);
        };
        hooks.on_detect = [this](const fault::ChurnEvent &e) {
            onDetectEvent(e);
        };
        hooks.on_leave = [this](const fault::ChurnEvent &e) {
            onLeaveEvent(e);
        };
        // Rejoin is driven from inside the worker coroutine (it must
        // not be resynced while suspended mid-iteration), so no
        // on_rejoin hook is needed.
        injector_->scheduleChurn(std::move(hooks));
    }
}

Engine::~Engine() = default;

void
Engine::computeGradients(WorkerContext &w)
{
    auto batch = w.sampler->sample(w.batch_size);
    w.model->zeroGrad();
    const tensor::Tensor &out = w.model->forward(batch.features);
    nn::LossResult loss;
    if (!batch.labels.empty())
        loss = nn::softmaxCrossEntropy(out, batch.labels);
    else
        loss = nn::meanSquaredError(out, batch.targets);
    w.model->backward(loss.grad);
}

void
Engine::accumulateGradients(WorkerContext &w)
{
    // Units are disjoint flat ranges, so accumulating them touches
    // disjoint accumulators — safe to fan out across the pool.
    parallel::parallelFor(
        0, partition_->unitCount(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t u = lo; u < hi; ++u)
                w.flat->accumulateGrad(partition_->chunks(u), w.accum[u]);
        });
}

std::size_t
Engine::currentThreshold(std::size_t worker) const
{
    if (auto_ctrl_)
        return auto_ctrl_->threshold();
    if (flown_)
        return flown_->thresholdFor(worker);
    return cfg_.system.staleness_threshold;
}

std::vector<std::size_t>
Engine::rankPushOrder(WorkerContext &w, std::size_t iteration,
                      std::size_t threshold, std::size_t &forced)
{
    const std::size_t units = partition_->unitCount();
    std::vector<double> mags(units);
    // Each unit's magnitude is independent; the nested meanAbs runs
    // inline inside the pool region, so the value per unit is the
    // same as the sequential loop's.
    parallel::parallelFor(0, units, 1,
                          [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t u = lo; u < hi; ++u)
                                  mags[u] = tensor::meanAbs(
                                      std::span<const float>(
                                          w.accum[u].data(),
                                          w.accum[u].size()));
                          });
    auto order = rankUnits(ImportanceMode::Worker, cfg_.system.importance,
                           mags, w.push_iter, w.rng);

    // Staleness floor: a unit whose age would trigger the RSP gate if
    // skipped again MUST be in this transmission, or the worker would
    // stall on its own stale row — the situation the MTA inequality
    // (1-P)^(S-1) < P is meant to rule out. Move those units to the
    // front, oldest first, and report how many there are so the
    // speculative transmission cannot cut them.
    forced = 0;
    if (cfg_.system.atp) {
        const auto n = static_cast<std::int64_t>(iteration);
        const auto t = static_cast<std::int64_t>(threshold);
        std::stable_partition(order.begin(), order.end(),
                              [&](std::size_t u) {
                                  return n - w.push_iter[u] >= t - 1;
                              });
        for (std::size_t u : order) {
            if (n - w.push_iter[u] >= t - 1)
                ++forced;
            else
                break;
        }
        std::stable_sort(order.begin(), order.begin() + forced,
                         [&](std::size_t a, std::size_t b) {
                             return w.push_iter[a] < w.push_iter[b];
                         });
    }
    return order;
}

double
Engine::transcodeUnit(compress::Codec &codec, FlatModel &flat,
                      std::size_t unit_idx, std::span<const float> in,
                      std::span<float> out)
{
    const Unit &unit = partition_->unit(unit_idx);
    ROG_ASSERT(in.size() == unit.width && out.size() == unit.width,
               "transcode unit size mismatch");
    const auto chunks = partition_->chunks(unit_idx);
    if (chunks.size() == 1) {
        // A row unit (ROG's granularity): one block, no fan-out.
        const RowChunk &c = chunks[0];
        return codec.transcode(c.row, flat.rowInfo(c.row).width, c.col, in,
                               out);
    }

    // Each chunk is a distinct codec block, so once prepare() has
    // created their state they transcode concurrently without racing
    // on the codec's block map.
    for (const RowChunk &c : chunks)
        codec.prepare(c.row, flat.rowInfo(c.row).width);
    chunk_magnitude_.resize(chunks.size());
    parallel::parallelFor(
        0, chunks.size(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const RowChunk &c = chunks[i];
                chunk_magnitude_[i] = codec.transcode(
                    c.row, flat.rowInfo(c.row).width, c.col,
                    in.subspan(c.off, c.count), out.subspan(c.off, c.count));
            }
        });
    // Summed in chunk order, so the total is independent of threads.
    double magnitude = 0.0;
    for (std::size_t i = 0; i < chunks.size(); ++i)
        magnitude += chunk_magnitude_[i];
    return magnitude;
}

void
Engine::checkpoint(WorkerContext &w, std::size_t iteration)
{
    CheckpointRecord c;
    c.worker = w.id;
    c.iteration = iteration;
    c.time_s = sim_.now();
    c.energy_j = w.meter->totalJoules();
    c.metric = workload_.evaluate(*w.model);
    result_.checkpoints.push_back(c);
}

std::int64_t
Engine::stalenessBehind(const WorkerContext &w) const
{
    std::size_t fastest = 0;
    for (const auto &other : workers_)
        fastest = std::max(fastest, other.cur_iter);
    return static_cast<std::int64_t>(fastest) -
           static_cast<std::int64_t>(w.cur_iter);
}

sim::Process
Engine::workerProcess(WorkerContext &w)
{
    using sim::DeviceState;

    const std::size_t units = partition_->unitCount();
    const bool atp = cfg_.system.atp;
    const double header = kTransferHeaderBytes;
    std::vector<float> decoded;

    std::size_t n = 0;
    while (n < cfg_.iterations) {
        // Crash limbo (fault injection): the iteration in flight when
        // the crash hit was discarded. Wait out the outage and resync
        // to the current model, or exit for good when the plan never
        // brings this worker back (or only after the horizon).
        if (w.crashed) {
            w.meter->setState(DeviceState::Stall);
            while (w.pull_in_flight)
                co_await w.pull_cond->wait();
            w.carried_pull_comm_s = 0.0;
            w.carried_bytes_pulled = 0.0;
            w.carried_units_pulled = 0;
            if (!std::isfinite(w.rejoin_time)) {
                // Permanent silent crash: stay dark — peers keep
                // stalling on this ghost — until the fault plan's
                // detection retires it, then exit (plan validation
                // guarantees detection is finite here).
                while (!server_->retired(w.id))
                    co_await version_cond_->wait();
                break;
            }
            if (sim_.now() < w.rejoin_time) {
                co_await sim::delay(sim_, w.rejoin_time - sim_.now());
                continue;
            }
            rejoinResync(w, n);
            continue;
        }
        if (sim_.now() >= cfg_.time_horizon_seconds)
            break;
        if (w.leaving)
            break; // announced graceful departure (fault plan).
        ++n;

        IterationRecord rec;
        rec.worker = w.id;
        rec.iteration = n;

        // ---- Computation (Algo 1 line 2-3) ----
        // Gradients are taken against the weights at the start of the
        // compute window: a pipelined pull landing mid-window applies
        // to the *next* iteration's gradients, as in Pipe-SGD [65].
        w.meter->setState(DeviceState::Compute);
        computeGradients(w);
        accumulateGradients(w);
        co_await sim::delay(sim_, w.compute_seconds);
        if (w.crashed)
            continue; // crashed mid-compute: the iteration is lost.
        rec.compute_s = w.compute_seconds;

        // Radio is half-duplex: join a still-in-flight pipelined pull
        // before pushing, and account its totals to this iteration.
        if (w.pull_in_flight) {
            w.meter->setState(DeviceState::Communicate);
            while (w.pull_in_flight)
                co_await w.pull_cond->wait();
        }
        if (w.crashed)
            continue;
        rec.comm_s += w.carried_pull_comm_s;
        rec.bytes_pulled += w.carried_bytes_pulled;
        rec.units_pulled += w.carried_units_pulled;
        w.carried_pull_comm_s = 0.0;
        w.carried_bytes_pulled = 0.0;
        w.carried_units_pulled = 0;

        // ---- PushGradients (Algo 1 line 4, Algo 3+4) ----
        const std::size_t threshold = currentThreshold(w.id);
        std::size_t forced = 0;
        const auto order = rankPushOrder(w, n, threshold, forced);
        std::vector<double> prefix(units + 1, 0.0);
        for (std::size_t i = 0; i < units; ++i)
            prefix[i + 1] = prefix[i] + unit_bytes_[order[i]];

        // The transmitted minimum is the MTA, extended if the
        // staleness floor demands more (see rankPushOrder).
        const std::size_t mta = atp
            ? std::max(mtaUnits(threshold, units), forced)
            : units;
        const double timeout =
            atp ? server_->mtaTime() : net::Channel::kNoTimeout;

        // Two phases (Algo 4): the minimum transmission amount is
        // mandatory — a straggler transmits exactly its MTA, however
        // long the degraded bandwidth makes that take, and reports the
        // time; a non-straggler finishes its MTA quickly and keeps
        // transmitting more rows until the shared MTA time window
        // closes (speculatively — the cut row is discarded).
        w.meter->setState(DeviceState::Communicate);
        auto res = co_await channel_->transfer(w.id, header + prefix[mta],
                                               net::Channel::kNoTimeout);
        std::size_t sent = mta;
        if (!res.completed) {
            // A fault (truncation / forced timeout) cut the mandatory
            // transfer: only rows whose bytes fully arrived count.
            sent = 0;
            while (sent < mta &&
                   header + prefix[sent + 1] <= res.bytes_sent + 1e-6)
                ++sent;
        }
        double push_elapsed = res.elapsed;
        double push_wire = res.bytes_sent;
        if (atp && res.completed && sent < units &&
            push_elapsed < timeout &&
            cfg_.per_unit_judgement_seconds <= 0.0) {
            const double window = timeout - push_elapsed;
            auto res2 = co_await channel_->transfer(
                w.id, prefix[units] - prefix[mta], window);
            while (sent < units &&
                   prefix[sent + 1] - prefix[mta] <=
                       res2.bytes_sent + 1e-6) {
                ++sent;
            }
            push_elapsed += res2.elapsed;
            push_wire += res2.bytes_sent;
        } else if (atp && cfg_.per_unit_judgement_seconds > 0.0) {
            // Judgement-insertion ablation: transmit unit by unit,
            // checking the window between transmissions. No bytes are
            // ever discarded, but every check burns time comparable to
            // a row transmission (Sec. III-A's rejected alternative).
            while (sent < units && push_elapsed < timeout) {
                co_await sim::delay(sim_,
                                    cfg_.per_unit_judgement_seconds);
                push_elapsed += cfg_.per_unit_judgement_seconds;
                if (push_elapsed >= timeout)
                    break;
                auto res2 = co_await channel_->transfer(
                    w.id, unit_bytes_[order[sent]],
                    net::Channel::kNoTimeout);
                push_elapsed += res2.elapsed;
                push_wire += res2.bytes_sent;
                ++sent;
            }
        }
        // A crash anywhere in the push discards the iteration: the
        // transferred bytes never reached the server, so no row of it
        // is accumulated or versioned.
        if (w.crashed)
            continue;
        rec.comm_s += push_elapsed;
        rec.bytes_pushed = push_wire;
        rec.units_pushed = sent;
        rec.push_fraction =
            static_cast<double>(sent) / static_cast<double>(units);

        // Server receive (Algo 2 lines 2-6): exactly the units whose
        // bytes verifiably arrived, the first `sent` of the order.
        for (std::size_t i = 0; i < sent; ++i) {
            const std::size_t u = order[i];
            decoded.resize(w.accum[u].size());
            rec.pushed_magnitude += transcodeUnit(
                *w.push_codec, *w.flat, u, w.accum[u], decoded);
            server_->accumulate(u, decoded);
            server_->noteUpdate(u, static_cast<std::int64_t>(n));
            server_->updateVersion(w.id, u, static_cast<std::int64_t>(n));
            if (cfg_.invariants) {
                cfg_.invariants->onPush(w.id, u,
                                        static_cast<std::int64_t>(n),
                                        server_->version(w.id, u));
            }
            std::fill(w.accum[u].begin(), w.accum[u].end(), 0.0f);
            w.push_iter[u] = static_cast<std::int64_t>(n);
        }
        if (atp && push_elapsed > 0.0) {
            server_->report(w.id, push_wire, push_elapsed,
                             header + prefix[mta]);
        }
        if (flown_ && push_elapsed > 0.0)
            flown_->reportThroughput(w.id, push_wire / push_elapsed);
        version_cond_->notifyAll();

        // Write-ahead server checkpoint, then any scheduled server
        // crash keyed to the iteration just applied. Both run
        // synchronously — zero virtual time, zero RNG — so a crash
        // aligned with the checkpoint cadence recovers to the exact
        // pre-crash state and the run continues byte-identically.
        maybeCheckpointServer(static_cast<std::int64_t>(n));
        while (!pending_server_crashes_.empty() &&
               pending_server_crashes_.front() <=
                   static_cast<std::int64_t>(n)) {
            const std::int64_t at = pending_server_crashes_.front();
            pending_server_crashes_.erase(
                pending_server_crashes_.begin());
            serverCrashRecover(at);
        }

        // ---- RSP gate (Algo 2 lines 7-9) ----
        // RSP's two-level staleness control splits the budget:
        //  * across workers, the rows just pushed (v_r_i = n) must stay
        //    within t of the slowest worker's training state — enforced
        //    here by waiting while n - min_s(iteration_s) >= t;
        //  * within a worker, row versions must stay within t of each
        //    other — enforced constructively by the MTA staleness floor
        //    (see rankPushOrder), which caps row rotation at t-1.
        // Each row's end-to-end staleness is therefore bounded, which
        // is what Theorem 1 needs (S_max over rows).
        // The wait is on the slowest *other* live worker: a worker's
        // own state is never ahead of itself, and waiting on one's own
        // (possibly fault-truncated) pushed versions could deadlock.
        // Fault-free this is identical to the global minimum, because a
        // full push always advances the worker's own versions to n.
        const auto gate_floor = [this, &w]() {
            std::int64_t m = std::numeric_limits<std::int64_t>::max();
            for (const auto &other : workers_) {
                if (other.id == w.id || server_->retired(other.id))
                    continue;
                m = std::min(m,
                             server_->maxVersionOfWorker(other.id));
            }
            return m;
        };
        const double stall_start = sim_.now();
        w.meter->setState(DeviceState::Stall);
        while (!w.crashed && !server_->retired(w.id) &&
               static_cast<std::int64_t>(n) - gate_floor() >=
                   static_cast<std::int64_t>(threshold)) {
            co_await version_cond_->wait();
        }
        if (w.crashed)
            continue; // crashed while stalling; the push stands.
        rec.stall_s = sim_.now() - stall_start;
        if (cfg_.invariants) {
            std::int64_t gate_min = gate_floor();
            if (gate_min == std::numeric_limits<std::int64_t>::max())
                gate_min = static_cast<std::int64_t>(n); // alone.
            cfg_.invariants->onGatePass(
                w.id, static_cast<std::int64_t>(n),
                std::min(gate_min, static_cast<std::int64_t>(n)),
                static_cast<std::int64_t>(threshold),
                server_->retired(w.id));
        }

        // ---- Pull averaged gradients (Algo 2 lines 10-13) ----
        // The pull runs as its own process: joined inline normally,
        // overlapped with the next iteration's computation when
        // pipeline_pull is set (the Pipe-SGD-style future work of
        // Sec. VI-D).
        ROG_ASSERT(!w.pull_in_flight, "pull already in flight");
        w.pull_in_flight = true;
        pullProcess(w);
        if (!cfg_.pipeline_pull) {
            while (w.pull_in_flight)
                co_await w.pull_cond->wait();
            if (w.crashed)
                continue;
            rec.comm_s += w.carried_pull_comm_s;
            rec.bytes_pulled += w.carried_bytes_pulled;
            rec.units_pulled += w.carried_units_pulled;
            w.carried_pull_comm_s = 0.0;
            w.carried_bytes_pulled = 0.0;
            w.carried_units_pulled = 0;
        }

        // ---- Bookkeeping ----
        if (auto_ctrl_) {
            auto_ctrl_->observe(rec.stall_s, rec.compute_s + rec.comm_s +
                                                 rec.stall_s);
        }
        w.cur_iter = n;
        rec.staleness_behind = stalenessBehind(w);
        rec.end_time_s = sim_.now();
        if (cfg_.invariants)
            cfg_.invariants->onTimeAdvance(rec.end_time_s);
        result_.iterations.push_back(rec);
        if (n % cfg_.eval_every == 0 || n == cfg_.iterations)
            checkpoint(w, n);
        w.meter->setState(DeviceState::Compute);
    }

    // Join any still-in-flight pipelined pull before leaving.
    while (w.pull_in_flight)
        co_await w.pull_cond->wait();

    // Leave the run: never stall the remaining workers (Sec. IV).
    if (w.cur_iter < cfg_.iterations && w.cur_iter > 0 &&
        w.cur_iter % cfg_.eval_every != 0) {
        checkpoint(w, w.cur_iter);
    }
    w.done = true;
    if (!server_->retired(w.id)) {
        server_->retireWorker(w.id);
        if (cfg_.invariants)
            cfg_.invariants->onRetire(w.id);
    }
    version_cond_->notifyAll();

    // Snapshot this worker's accounting at its own departure time: a
    // finished robot powers down and must not accrue phantom compute
    // energy while slower teammates keep training.
    result_.worker_iterations[w.id] = w.cur_iter;
    result_.worker_energy_j[w.id] = w.meter->totalJoules();
    result_.worker_compute_s[w.id] =
        w.meter->secondsIn(sim::DeviceState::Compute);
    result_.worker_comm_s[w.id] =
        w.meter->secondsIn(sim::DeviceState::Communicate);
    result_.worker_stall_s[w.id] =
        w.meter->secondsIn(sim::DeviceState::Stall);
    ++finished_workers_;
    co_return;
}

sim::Process
Engine::pullProcess(WorkerContext &w)
{
    using sim::DeviceState;

    const std::size_t units = partition_->unitCount();
    const bool atp = cfg_.system.atp;
    const double header = kTransferHeaderBytes;
    std::vector<float> pending;
    std::vector<float> decoded;

    std::vector<std::size_t> cand;
    for (std::size_t u = 0; u < units; ++u)
        if (server_->hasPending(w.id, u))
            cand.push_back(u);
    if (!cand.empty()) {
        std::vector<double> mags(cand.size());
        std::vector<std::int64_t> iters(cand.size());
        for (std::size_t i = 0; i < cand.size(); ++i) {
            mags[i] = server_->pendingMeanAbs(w.id, cand[i]);
            iters[i] = server_->lastUpdate(cand[i]);
        }
        const auto rank = rankUnits(ImportanceMode::Server,
                                    cfg_.system.importance, mags, iters,
                                    w.rng);
        std::vector<double> pull_prefix(cand.size() + 1, 0.0);
        for (std::size_t i = 0; i < cand.size(); ++i)
            pull_prefix[i + 1] =
                pull_prefix[i] + unit_bytes_[cand[rank[i]]];

        const std::size_t pull_mta = atp
            ? std::min(mtaUnits(currentThreshold(w.id), units),
                       cand.size())
            : cand.size();
        const double pull_timeout =
            atp ? server_->mtaTime() : net::Channel::kNoTimeout;

        // When pipelined, the main process may flip the meter back to
        // Compute while this transfer is in flight; the overlap is
        // then charged at compute power (which dominates).
        w.meter->setState(DeviceState::Communicate);
        auto pres = co_await channel_->transfer(
            w.id, header + pull_prefix[pull_mta],
            net::Channel::kNoTimeout);
        std::size_t pulled = pull_mta;
        if (!pres.completed) {
            // Faulted pull: only fully delivered units are applied;
            // the rest stay pending at the server for the next round.
            pulled = 0;
            while (pulled < pull_mta &&
                   header + pull_prefix[pulled + 1] <=
                       pres.bytes_sent + 1e-6)
                ++pulled;
        }
        double pull_elapsed = pres.elapsed;
        double pull_wire = pres.bytes_sent;
        if (atp && pres.completed && pulled < cand.size() &&
            pull_elapsed < pull_timeout) {
            auto pres2 = co_await channel_->transfer(
                w.id, pull_prefix[cand.size()] - pull_prefix[pull_mta],
                pull_timeout - pull_elapsed);
            while (pulled < cand.size() &&
                   pull_prefix[pulled + 1] - pull_prefix[pull_mta] <=
                       pres2.bytes_sent + 1e-6) {
                ++pulled;
            }
            pull_elapsed += pres2.elapsed;
            pull_wire += pres2.bytes_sent;
        }
        if (w.crashed) {
            // Crash mid-pull: nothing is applied; the server keeps the
            // pending copies for the rejoin resync to clear.
            w.pull_in_flight = false;
            w.pull_cond->notifyAll();
            co_return;
        }
        w.carried_pull_comm_s += pull_elapsed;
        w.carried_bytes_pulled += pull_wire;
        w.carried_units_pulled += pulled;

        for (std::size_t i = 0; i < pulled; ++i) {
            const std::size_t u = cand[rank[i]];
            const bool had_pending = server_->hasPending(w.id, u);
            // A server recovery mid-pull rolls the pending copy away;
            // the fetched bytes described pre-crash state and are
            // discarded, not applied. Without a recovery a missing
            // pending copy is an engine bug and stays a violation.
            if (!had_pending && !result_.recoveries.empty())
                continue;
            if (cfg_.invariants)
                cfg_.invariants->onApply(w.id, u, had_pending);
            pending.resize(partition_->unit(u).width);
            server_->takePending(w.id, u, pending);
            decoded.resize(pending.size());
            transcodeUnit(*w.pull_codec, *w.flat, u, pending, decoded);
            applyRowChunks(*w.opt, partition_->chunks(u), decoded);
        }
        if (atp && pull_elapsed > 0.0) {
            server_->report(w.id, pull_wire, pull_elapsed,
                             header + pull_prefix[pull_mta]);
        }
    }
    w.pull_in_flight = false;
    w.pull_cond->notifyAll();
    co_return;
}

void
Engine::onCrashEvent(const fault::ChurnEvent &e)
{
    WorkerContext &w = workers_[e.worker];
    if (w.done)
        return; // already left on its own.
    w.crashed = true;
    w.rejoin_time = e.rejoin_s;
    // Waiters must observe the crash promptly: the worker itself may
    // be parked in the staleness gate or a pull join, and peers must
    // re-check membership once detection retires it.
    version_cond_->notifyAll();
    w.pull_cond->notifyAll();
}

void
Engine::onDetectEvent(const fault::ChurnEvent &e)
{
    WorkerContext &w = workers_[e.worker];
    // Detection can race a rejoin or a natural exit; only a worker
    // that is still down gets retired from the gate's membership.
    if (w.done || !w.crashed || server_->retired(w.id))
        return;
    server_->retireWorker(w.id);
    if (cfg_.invariants)
        cfg_.invariants->onRetire(w.id);
    version_cond_->notifyAll();
}

void
Engine::onLeaveEvent(const fault::ChurnEvent &e)
{
    WorkerContext &w = workers_[e.worker];
    if (w.done)
        return;
    w.leaving = true; // finish the current iteration, then retire.
}

void
Engine::rejoinResync(WorkerContext &w, std::size_t &n)
{
    // A rejoining robot downloads the current model instead of
    // replaying what it missed: weights come from the most advanced
    // live replica, and optimizer/codec state restarts fresh (its
    // momentum and error feedback described the lost trajectory).
    const WorkerContext *src = nullptr;
    for (const auto &other : workers_) {
        if (other.id == w.id || other.crashed)
            continue;
        if (!src || other.cur_iter > src->cur_iter)
            src = &other;
    }
    std::int64_t resume = static_cast<std::int64_t>(w.cur_iter);
    if (src && src->cur_iter > w.cur_iter)
        resume = static_cast<std::int64_t>(src->cur_iter);
    // The worker may have pushed iteration n and crashed while
    // stalling: those rows stand at the server, so versions cannot
    // move backwards through the rejoin.
    resume = std::max(resume, server_->maxVersionOfWorker(w.id));
    if (src) {
        for (std::size_t r = 0; r < w.flat->rowCount(); ++r) {
            const auto from = src->flat->rowValues(r);
            const auto to = w.flat->rowValues(r);
            std::copy(from.begin(), from.end(), to.begin());
        }
    }
    w.opt = std::make_unique<nn::SgdMomentum>(
        *w.model, workload_.optimizerConfig());
    w.push_codec = compress::makeCodec(cfg_.codec);
    w.pull_codec = compress::makeCodec(cfg_.codec);
    for (auto &acc : w.accum)
        std::fill(acc.begin(), acc.end(), 0.0f);
    w.push_iter.assign(w.push_iter.size(), resume);
    // The resynced model already reflects every averaged gradient the
    // server was still holding for this worker.
    server_->clearWorker(w.id);
    server_->rejoinWorker(w.id, resume);
    if (cfg_.invariants)
        cfg_.invariants->onRejoin(w.id, resume);
    w.cur_iter = static_cast<std::size_t>(resume);
    n = w.cur_iter;
    w.crashed = false;
    w.rejoin_time = std::numeric_limits<double>::infinity();
    version_cond_->notifyAll();
}

void
Engine::maybeCheckpointServer(std::int64_t iter)
{
    if (cfg_.checkpoint_path.empty())
        return;
    const std::size_t every = cfg_.checkpoint_every > 0
                                  ? cfg_.checkpoint_every
                                  : cfg_.eval_every;
    if (iter % static_cast<std::int64_t>(every) != 0 ||
        iter <= last_checkpoint_iter_)
        return;
    writeShardCheckpoints(cfg_.checkpoint_path, *server_, iter);
    last_checkpoint_iter_ = iter;
    ++result_.checkpoints_written;
}

void
Engine::serverCrashRecover(std::int64_t crash_iter)
{
    // Ground truth the checkpoint cannot know: which workers are
    // retired *now* (evictions, departures, rejoins since the write),
    // and the row floor their peers saw — captured before any shard
    // restores.
    const std::size_t nw = workers_.size();
    std::vector<std::uint8_t> live_retired(nw, 0);
    std::vector<std::int64_t> live_floor(nw, 0);
    for (std::size_t i = 0; i < nw; ++i) {
        live_retired[i] = server_->retired(i) ? 1 : 0;
        live_floor[i] = std::max<std::int64_t>(
            0, server_->maxVersionOfWorker(i));
    }

    std::int64_t ckpt_iter = 0;
    for (std::size_t s = 0; s < server_->shardCount(); ++s) {
        ServerCheckpoint ckpt;
        if (last_checkpoint_iter_ >= 0)
            ckpt = readServerCheckpointFile(
                shardCheckpointPath(cfg_.checkpoint_path, s));
        else
            ckpt = genesis_[s];
        server_->shard(s).restore(ckpt.versions, ckpt.server,
                                  ckpt.tracker);
        ckpt_iter = ckpt.iteration; // identical across shards.
    }

    ServerRecoveryRecord rr;
    rr.crash_iter = crash_iter;
    rr.checkpoint_iter = ckpt_iter;
    rr.rolled_back = ckpt_iter < crash_iter;
    rr.time_s = sim_.now();

    // Reconcile membership with the live truth: retirement is decided
    // by the running group, not by the dead server's last write.
    for (std::size_t i = 0; i < nw; ++i) {
        const bool was_retired = live_retired[i] != 0;
        if (was_retired && !server_->retired(i)) {
            server_->retireWorker(i);
        } else if (!was_retired && server_->retired(i)) {
            // Rejoined after the checkpoint: its live row floor is
            // what its peers saw before the crash.
            server_->rejoinWorker(i, live_floor[i]);
        }
    }

    if (cfg_.invariants)
        cfg_.invariants->onServerRecovery(ckpt_iter, crash_iter);
    result_.recoveries.push_back(rr);
}

RunResult
Engine::run()
{
    // Wire-path pool occupancy is reported as a delta over the run:
    // the pool is process-global, so absolute counters would mix in
    // whatever earlier runs (or tests) leased.
    const BufferPool::Stats pool_start = BufferPool::global().stats();

    // Iteration-0 checkpoint: the shared starting model.
    {
        const double metric0 = workload_.evaluate(*workers_[0].model);
        for (const auto &w : workers_) {
            CheckpointRecord c;
            c.worker = w.id;
            c.iteration = 0;
            c.time_s = 0.0;
            c.energy_j = 0.0;
            c.metric = metric0;
            result_.checkpoints.push_back(c);
        }
    }

    for (auto &w : workers_)
        workerProcess(w);
    sim_.run();
    ROG_ASSERT(finished_workers_ == workers_.size(),
               "simulation drained with unfinished workers");

    result_.sim_seconds = sim_.now();
    result_.total_bytes = channel_->totalBytesDelivered();
    result_.completed_iterations = cfg_.iterations;
    for (const auto &w : workers_) {
        result_.completed_iterations =
            std::min(result_.completed_iterations, w.cur_iter);
    }
    if (cfg_.capture_final_model) {
        std::ostringstream os;
        for (const auto &w : workers_)
            nn::saveModel(os, *w.model);
        result_.final_model_bytes = os.str();
    }

    const BufferPool::Stats pool_end = BufferPool::global().stats();
    result_.pool_leases = pool_end.leases - pool_start.leases;
    result_.pool_reuses = pool_end.reuses - pool_start.reuses;
    result_.pool_allocations =
        pool_end.allocations - pool_start.allocations;
    result_.pool_hit_rate =
        result_.pool_leases == 0
            ? 0.0
            : static_cast<double>(result_.pool_reuses) /
                  static_cast<double>(result_.pool_leases);
    result_.pool_peak_outstanding = pool_end.peak_outstanding;
    result_.pool_resident_bytes = pool_end.resident_bytes;
    return result_;
}

} // namespace

RunResult
runDistributedTraining(Workload &workload, const EngineConfig &config,
                       const NetworkSetup &network)
{
    Engine engine(workload, config, network);
    return engine.run();
}

double
modelWireBytes(Workload &workload, Granularity granularity,
               const std::string &codec_name)
{
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, granularity);
    auto codec = compress::makeCodec(codec_name);
    double bytes = 0.0;
    for (std::size_t u = 0; u < partition.unitCount(); ++u)
        bytes += unitWireBytes(partition, *codec, u);
    return bytes;
}

} // namespace core
} // namespace rog
