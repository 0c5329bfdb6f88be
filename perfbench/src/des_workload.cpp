/**
 * @file
 * des_cruda_rog: the path behind the paper figures. stats::runSystem
 * runs the ROG system (RSP threshold 20) on the paper CRUDA preset with
 * four robots over outdoor traces, on one thread. tensor, nn, compress
 * and evaluation do the work; the socket transport does none.
 *
 * Every rep builds a fresh CrudaWorkload, because its batch samplers
 * draw from a stream the workload advances, so only a fresh workload
 * reproduces a run. The build (CRUDA pretraining) is the set-up time.
 *
 * The traced run reaches nn through an nn::Layer decorator in the
 * replicas of a delegating Workload, and evaluation through
 * Workload::evaluate.
 */
#include <iostream>
#include <string>

#include "calibrate.hpp"
#include "common/rng.hpp"
#include "core/system_config.hpp"
#include "core/workloads.hpp"
#include "nn/layers.hpp"
#include "stats/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rog;

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kRepIterations = 300; //!< per worker.
constexpr std::size_t kGateIterations = 60; //!< second-seed gate.
constexpr std::size_t kMinReps = 3;

struct DesClocks
{
    Tracer tracer;
    LayerClock forward;
    LayerClock backward;
    LayerClock eval;
};

/** Times forward and backward of the layer it wraps. */
class TimedLayer : public nn::Layer
{
  public:
    TimedLayer(std::unique_ptr<nn::Layer> inner, DesClocks &clocks)
        : inner_(std::move(inner)), clocks_(clocks)
    {
    }

    void
    forward(const nn::Tensor &in, nn::Tensor &out) override
    {
        Tracer::Span span(&clocks_.tracer, clocks_.forward);
        inner_->forward(in, out);
    }

    void
    backward(const nn::Tensor &dout, nn::Tensor &din) override
    {
        Tracer::Span span(&clocks_.tracer, clocks_.backward);
        inner_->backward(dout, din);
    }

    std::size_t
    outputDim(std::size_t input_dim) const override
    {
        return inner_->outputDim(input_dim);
    }

    std::vector<nn::Parameter *>
    parameters() override
    {
        return inner_->parameters();
    }

    std::string describe() const override { return inner_->describe(); }

  private:
    std::unique_ptr<nn::Layer> inner_;
    DesClocks &clocks_;
};

/**
 * Delegates to a CrudaWorkload; its replicas are the same classifier
 * built from TimedLayers, with parameters copied from the inner
 * replica, and evaluate() is timed.
 */
class TracedWorkload : public core::Workload
{
  public:
    TracedWorkload(core::CrudaWorkload &inner,
                   const nn::ClassifierConfig &arch, DesClocks &clocks)
        : inner_(inner), arch_(arch), clocks_(clocks)
    {
    }

    std::size_t workers() const override { return inner_.workers(); }

    std::unique_ptr<nn::Model>
    buildReplica() override
    {
        std::unique_ptr<nn::Model> reference = inner_.buildReplica();
        Rng rng; // overwritten by copyParametersFrom below.
        auto model = std::make_unique<nn::Model>();
        std::size_t in = arch_.input_dim;
        std::size_t idx = 0;
        for (std::size_t h : arch_.hidden) {
            add(*model, std::make_unique<nn::Linear>(
                            "fc" + std::to_string(idx++), in, h, rng));
            add(*model, std::make_unique<nn::Relu>());
            in = h;
        }
        add(*model,
            std::make_unique<nn::Linear>("head", in, arch_.classes, rng));
        model->copyParametersFrom(*reference);
        return model;
    }

    data::BatchSampler
    makeSampler(std::size_t w) override
    {
        return inner_.makeSampler(w);
    }

    std::size_t batchSize() const override { return inner_.batchSize(); }

    nn::OptimizerConfig
    optimizerConfig() const override
    {
        return inner_.optimizerConfig();
    }

    double
    evaluate(nn::Model &model) override
    {
        Tracer::Span span(&clocks_.tracer, clocks_.eval);
        return inner_.evaluate(model);
    }

    std::string metricName() const override { return inner_.metricName(); }
    bool lowerIsBetter() const override { return inner_.lowerIsBetter(); }

  private:
    void
    add(nn::Model &model, std::unique_ptr<nn::Layer> layer)
    {
        model.add(std::make_unique<TimedLayer>(std::move(layer), clocks_));
    }

    core::CrudaWorkload &inner_;
    nn::ClassifierConfig arch_;
    DesClocks &clocks_;
};

/** One rep's outputs; the fingerprint fields must repeat exactly. */
struct DesRep
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    std::size_t iterations = 0; //!< completed, summed over workers.
    std::size_t missing = 0;    //!< short of the per-worker budget.
    double slowdown = 1.0;      //!< host probe over the reference.

    double sim_seconds = 0.0;
    double total_bytes = 0.0;
    std::vector<double> metrics; //!< every evaluation checkpoint.

    DesClocks clocks; //!< filled by traced reps only.

    bool
    sameOutputs(const DesRep &o) const
    {
        return sim_seconds == o.sim_seconds &&
               total_bytes == o.total_bytes && metrics == o.metrics;
    }
};

core::CrudaWorkloadConfig
workloadConfig(std::uint64_t seed)
{
    core::CrudaWorkloadConfig wc;
    wc.workers = kWorkers;
    wc.seed = seed;
    wc.data.seed = seed ^ 0x5eedu;
    return wc;
}

DesRep
runRep(std::uint64_t seed, std::size_t iterations, bool traced)
{
    DesRep rep;
    const core::CrudaWorkloadConfig wc = workloadConfig(seed);

    const Clock::time_point t0 = Clock::now();
    core::CrudaWorkload workload(wc);
    rep.setup_s = secondsSince(t0);

    stats::ExperimentConfig exp;
    exp.env = stats::Environment::Outdoor;
    exp.iterations = iterations;
    exp.eval_every = 40;
    exp.time_horizon_seconds = 1e9; // iteration-bounded.
    // The traces stay the preset's (network_seed 5), as the paper
    // replays identical traces: the seed varies the data, the initial
    // model and the engine, not how much the network lets through.
    exp.engine_seed = seed;

    TracedWorkload traced_workload(workload, wc.model, rep.clocks);
    core::Workload &used =
        traced ? static_cast<core::Workload &>(traced_workload) : workload;

    const Clock::time_point t1 = Clock::now();
    const stats::SystemRun run =
        stats::runSystem(used, core::SystemConfig::rog(20), exp);
    rep.wall_s = secondsSince(t1);

    for (std::size_t w = 0; w < kWorkers; ++w) {
        const std::size_t done = w < run.result.worker_iterations.size()
                                     ? run.result.worker_iterations[w]
                                     : 0;
        rep.iterations += done;
        rep.missing += done < iterations ? iterations - done : 0;
    }
    rep.sim_seconds = run.result.sim_seconds;
    rep.total_bytes = run.result.total_bytes;
    for (const core::CheckpointRecord &c : run.result.checkpoints)
        rep.metrics.push_back(c.metric);
    return rep;
}

using Reps = std::vector<DesRep>;

/** Reps at @p seed until @p budget_s has passed (at least kMinReps). */
Reps
runPhase(std::uint64_t seed, bool traced, double budget_s, Report &report)
{
    Reps reps;
    HostProbe probe;
    const Clock::time_point t0 = Clock::now();
    while (reps.size() < kMinReps || secondsSince(t0) < budget_s) {
        reps.push_back(runRep(seed, kRepIterations, traced));
        reps.back().slowdown = probe.next();
        const DesRep &r = reps.back();
        report.attempt(kWorkers * kRepIterations, r.missing);
        report.check(r.missing == 0, "des_cruda_rog: a worker fell short");
        report.check(r.sameOutputs(reps.front()),
                     "des_cruda_rog: rep outputs differ at one seed");
    }
    return reps;
}

} // namespace

void
runDesCrudaRog(const Options &opt, Report &report, Values &out)
{
    // The gate on a second seed, first so that it also warms up: two
    // small reps must agree and finish their budgets.
    const std::uint64_t seed2 = opt.seed + 0x9E3779B9u;
    const auto g1 = runRep(seed2, kGateIterations, false);
    const auto g2 = runRep(seed2, kGateIterations, false);
    report.attempt(2 * kWorkers * kGateIterations, g1.missing + g2.missing);
    report.check(g1.missing + g2.missing == 0,
                 "des_cruda_rog: a second-seed worker fell short");
    report.check(g1.sameOutputs(g2) && !g1.metrics.empty(),
                 "des_cruda_rog: second-seed reps differ");

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Reps plain = runPhase(opt.seed, false, budget, report);
    const DesRep &ref = plain.front();
    std::cerr << "des_cruda_rog: " << plain.size() << " reps, final "
              << (ref.metrics.empty() ? 0.0 : ref.metrics.back())
              << " accuracy_pct, sim " << ref.sim_seconds << " s, "
              << ref.total_bytes << " bytes, host slowdown "
              << median(collect(plain, [](const DesRep &r) {
                     return r.slowdown;
                 }))
              << "\n";

    const std::vector<double> wall =
        collect(plain, [](const DesRep &r) { return r.wall_s; });
    if (!opt.trace) {
        // Reference-host figures: each rep scaled by its slowdown.
        out["train_iters_per_s"] = median(collect(plain, [](const DesRep &r) {
            return static_cast<double>(r.iterations) / r.wall_s * r.slowdown;
        }));
        const std::vector<double> per_push =
            collect(plain, [](const DesRep &r) {
                return r.wall_s * 1e6 / static_cast<double>(r.iterations) /
                       r.slowdown;
            });
        out["push_apply_p50_us"] = median(per_push);
        out["push_apply_p99_us"] = tailQuantile(per_push);
        out["setup_s"] = median(collect(
            plain, [](const DesRep &r) { return r.setup_s / r.slowdown; }));
        out["peak_rss_mb"] = peakRssMb();
        return;
    }

    const Reps traced = runPhase(opt.seed, true, budget, report);
    for (const DesRep &r : traced)
        report.check(r.sameOutputs(ref),
                     "des_cruda_rog: traced outputs differ from untraced");
    const auto med = [&](auto f) { return median(collect(traced, f)); };
    const double fwd = med([](const DesRep &r) {
        return r.clocks.forward.self_s;
    });
    const double bwd = med([](const DesRep &r) {
        return r.clocks.backward.self_s;
    });
    const double eval = med([](const DesRep &r) {
        return r.clocks.eval.self_s;
    });
    const double traced_wall =
        med([](const DesRep &r) { return r.wall_s; });

    out["nn.forward_s"] = fwd;
    out["nn.backward_s"] = bwd;
    out["nn.layer_calls"] = med([](const DesRep &r) {
        return static_cast<double>(r.clocks.forward.calls +
                                   r.clocks.backward.calls);
    });
    out["core.eval_s"] = eval;
    out["core.eval_calls"] = med([](const DesRep &r) {
        return static_cast<double>(r.clocks.eval.calls);
    });
    out["core.engine_other_s"] = traced_wall - fwd - bwd - eval;
    out["sim.sim_s_per_wall_s"] = median(collect(
        plain, [](const DesRep &r) { return r.sim_seconds / r.wall_s; }));
    out["trace.attributed_share"] = (fwd + bwd + eval) / traced_wall;
    out["trace.overhead"] = traced_wall / median(wall) - 1.0;
    out["compress.wire_bytes_per_iter"] =
        ref.total_bytes / static_cast<double>(ref.iterations);
    Rng rng(opt.seed);
    nn::Model model = nn::makeClassifier(workloadConfig(opt.seed).model, rng);
    out["compress.transcode_ns_per_row"] = replay::transcodeNsPerRow(model);
    out["tensor.matmul_us"] = replay::matmulUs();
    out["tensor.matmul_2t_speedup"] = replay::matmul2tSpeedup();
}

} // namespace perfbench
