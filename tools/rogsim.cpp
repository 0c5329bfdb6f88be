/**
 * @file
 * rogsim — command-line front end to the ROG reproduction.
 *
 * Subcommands:
 *   run     run training systems on a workload over a simulated
 *           wireless environment and print the paper-style panels.
 *   trace   generate a bandwidth trace (optionally save/analyze it).
 *   regret  run the Theorem-1 regret simulation.
 *   mta     print the MTA fraction for a staleness threshold.
 *
 * Examples:
 *   rogsim run --workload cruda --env outdoor \
 *              --systems bsp,ssp4,flown,rog4 --iterations 400
 *   rogsim run --workload crimp --systems bsp,rog20 --workers 6
 *   rogsim trace --env outdoor --seconds 300 --seed 7 --out t.csv
 *   rogsim regret --staleness 8 --iterations 4000
 *   rogsim mta --threshold 4
 */
#include <iostream>
#include <set>
#include <string>

#include "common/args.hpp"
#include "common/logging.hpp"
#include "common/text_line.hpp"
#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "core/mta.hpp"
#include "core/system_config.hpp"
#include "core/workloads.hpp"
#include "net/trace_generator.hpp"
#include "net/trace_io.hpp"
#include "net/trace_stats.hpp"
#include "stats/experiment.hpp"
#include "stats/timeline.hpp"

namespace {

using namespace rog;

int
usage()
{
    std::cerr <<
        "usage: rogsim <run|trace|regret|mta> [options]\n"
        "  run    --workload cruda|crimp --env indoor|outdoor|stable\n"
        "         --systems bsp,ssp<t>,flown,rog<t> --iterations N\n"
        "         --workers K --eval-every N --batch-scale X\n"
        "         --seed S --auto-threshold --pipeline --timeline\n"
        "  trace  --env indoor|outdoor|stable --seconds T --seed S\n"
        "         [--mean-bps B] [--out file.csv]\n"
        "  regret --staleness S --workers P --iterations T --seed S\n"
        "  mta    --threshold t\n";
    return 2;
}

core::SystemConfig
parseSystem(const std::string &name)
{
    if (name == "bsp")
        return core::SystemConfig::bsp();
    if (name == "flown")
        return core::SystemConfig::flownSystem();
    std::uint64_t t = 0;
    if (name.rfind("ssp", 0) == 0 && parseNumber(name.substr(3), t))
        return core::SystemConfig::ssp(static_cast<std::size_t>(t));
    if (name.rfind("rog", 0) == 0 && parseNumber(name.substr(3), t))
        return core::SystemConfig::rog(static_cast<std::size_t>(t));
    ROG_USAGE_ERROR("unknown system '", name,
                    "' (expected bsp, ssp<t>, flown, or rog<t>)");
}

stats::Environment
parseEnv(const std::string &name)
{
    if (name == "indoor")
        return stats::Environment::Indoor;
    if (name == "outdoor")
        return stats::Environment::Outdoor;
    if (name == "stable")
        return stats::Environment::Stable;
    ROG_USAGE_ERROR("unknown environment '", name, "'");
}

int
cmdRun(const Args &args)
{
    const std::string workload_name = args.get("workload", "cruda");
    const std::size_t workers = args.getSize("workers", 4);
    const auto env = parseEnv(args.get("env", "outdoor"));

    stats::ExperimentConfig ecfg;
    ecfg.env = env;
    ecfg.iterations = args.getSize("iterations", 300);
    ecfg.eval_every = args.getSize("eval-every", 50);
    ecfg.batch_scale = args.getDouble("batch-scale", 1.0);
    ecfg.network_seed = args.getSize("seed", 5);

    std::vector<core::SystemConfig> systems;
    for (const auto &name :
         splitCommaList(args.get("systems", "bsp,rog4")))
        systems.push_back(parseSystem(name));
    if (systems.empty())
        ROG_USAGE_ERROR("no systems given");

    std::unique_ptr<core::Workload> workload;
    bool lower_better = false;
    double target = 0.0;
    if (workload_name == "cruda") {
        core::CrudaWorkloadConfig wcfg;
        wcfg.workers = workers;
        workload = std::make_unique<core::CrudaWorkload>(wcfg);
        target = 70.0;
    } else if (workload_name == "crimp") {
        core::CrimpWorkloadConfig wcfg;
        wcfg.workers = workers;
        workload = std::make_unique<core::CrimpWorkload>(wcfg);
        lower_better = true;
        target = 0.15;
    } else {
        ROG_USAGE_ERROR("unknown workload '", workload_name, "'");
    }

    std::vector<stats::SystemRun> runs;
    std::vector<core::RunResult> results;
    for (const auto &sys : systems) {
        core::EngineConfig engine;
        engine.system = sys;
        engine.profile.batch_scale = ecfg.batch_scale;
        engine.iterations = ecfg.iterations;
        engine.eval_every = ecfg.eval_every;
        engine.auto_threshold = args.has("auto-threshold");
        engine.pipeline_pull = args.has("pipeline");
        const auto network = stats::makeNetwork(*workload, ecfg);
        stats::SystemRun run;
        run.result =
            core::runDistributedTraining(*workload, engine, network);
        run.curve = stats::mergeCheckpoints(run.result);
        results.push_back(run.result);
        runs.push_back(std::move(run));
    }

    stats::printExperiment(
        std::cout,
        workload_name + " " + stats::environmentName(env), runs,
        /*time budget*/ 1200.0, target, lower_better);
    stats::utilizationTable("device utilization", results)
        .printText(std::cout);

    if (args.has("timeline")) {
        for (const auto &res : results) {
            std::cout << "# timeline " << res.system << "\n";
            stats::writeTimelineCsv(std::cout,
                                    stats::buildTimeline(res));
        }
    }
    return 0;
}

int
cmdTrace(const Args &args)
{
    const auto env = parseEnv(args.get("env", "outdoor"));
    const double mean = args.getDouble("mean-bps", 50e3);
    net::TraceModel model;
    switch (env) {
      case stats::Environment::Indoor:
        model = net::TraceModel::indoor(mean);
        break;
      case stats::Environment::Outdoor:
        model = net::TraceModel::outdoor(mean);
        break;
      case stats::Environment::Stable:
        model = net::TraceModel::stable(mean);
        break;
    }
    const auto trace =
        net::generateTrace(model, args.getDouble("seconds", 300.0),
                           args.getSize("seed", 7));
    const auto st = net::computeTraceStats(trace);
    Table t("trace statistics",
            {"mean_Bps", "sd_Bps", "sec_per_20pct", "sec_per_40pct",
             "deep_fade_pct"});
    t.addRow({Table::num(st.mean_bytes_per_sec, 0),
              Table::num(st.stddev_bytes_per_sec, 0),
              Table::num(st.seconds_per_20pct_fluctuation, 2),
              Table::num(st.seconds_per_40pct_fluctuation, 2),
              Table::num(100.0 * st.deep_fade_fraction, 1)});
    t.printText(std::cout);
    if (args.has("out")) {
        net::saveTrace(args.get("out"), trace);
        std::cout << "trace written to " << args.get("out") << "\n";
    }
    return 0;
}

int
cmdRegret(const Args &args)
{
    core::RegretConfig cfg;
    cfg.staleness = args.getSize("staleness", 4);
    cfg.workers = args.getSize("workers", 4);
    cfg.iterations = args.getSize("iterations", 4000);
    cfg.seed = args.getSize("seed", 1);
    const auto res = core::simulateRspRegret(cfg);
    Table t("Theorem 1 regret simulation",
            {"S", "P", "T", "regret", "bound", "within", "avg_regret"});
    t.addRow({std::to_string(cfg.staleness),
              std::to_string(cfg.workers),
              std::to_string(cfg.iterations),
              Table::num(res.cumulative_regret.back(), 2),
              Table::num(res.theorem_bound, 2),
              res.within_bound ? "yes" : "NO",
              Table::num(res.average_regret, 5)});
    t.printText(std::cout);
    return 0;
}

int
cmdMta(const Args &args)
{
    const std::size_t t = args.getSize("threshold", 4);
    std::cout << "MTA(" << t << ") = " << core::mtaFraction(t) << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::set<std::string> known = {
        "workload", "env", "systems", "iterations", "workers",
        "eval-every", "batch-scale", "seed", "auto-threshold",
        "pipeline", "timeline", "seconds", "mean-bps", "out",
        "staleness", "threshold"};
    try {
        Args args(argc, argv, known);
        if (args.positional().size() != 1)
            return usage();
        const std::string cmd = args.positional()[0];
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "regret")
            return cmdRegret(args);
        if (cmd == "mta")
            return cmdMta(args);
        return usage();
    } catch (const std::exception &e) {
        std::cerr << "rogsim: " << e.what() << "\n";
        return 1;
    }
}
