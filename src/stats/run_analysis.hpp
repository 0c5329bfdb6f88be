/**
 * @file
 * Post-processing of RunResults into the paper's figure quantities.
 *
 * The paper's curves are produced by "checkpointing and validating the
 * training model on each worker every 50 training iterations and then
 * averaging the validated accuracy among the workers" (Sec. VI-A);
 * mergeCheckpoints implements exactly that, and the *-ToReach helpers
 * read off the energy/time axes of Fig. 1d/6d/7d.
 */
#ifndef ROG_STATS_RUN_ANALYSIS_HPP
#define ROG_STATS_RUN_ANALYSIS_HPP

#include <vector>

#include "core/engine.hpp"

namespace rog {
namespace stats {

/** Worker-averaged checkpoint: one point of a paper curve. */
struct MergedCheckpoint
{
    std::size_t iteration = 0;
    double mean_time_s = 0.0;
    double mean_energy_j = 0.0;
    double mean_metric = 0.0;
};

/**
 * Average the per-worker checkpoints of a run at equal iteration
 * indices; only iterations every worker reached are kept.
 */
std::vector<MergedCheckpoint>
mergeCheckpoints(const core::RunResult &result);

/**
 * First energy (J) at which the metric reaches @p target, linearly
 * interpolated between checkpoints; NaN if never reached.
 * @param lower_is_better CRIMP-style error metrics.
 */
double energyToReach(const std::vector<MergedCheckpoint> &curve,
                     double target, bool lower_is_better);

/** First time (s) at which the metric reaches @p target; NaN if not. */
double timeToReach(const std::vector<MergedCheckpoint> &curve,
                   double target, bool lower_is_better);

/** Metric value at time @p t (interpolated; clamped to the ends). */
double metricAtTime(const std::vector<MergedCheckpoint> &curve, double t);

/** Metric value at iteration @p iter (interpolated; clamped). */
double metricAtIteration(const std::vector<MergedCheckpoint> &curve,
                         std::size_t iter);

} // namespace stats
} // namespace rog

#endif // ROG_STATS_RUN_ANALYSIS_HPP
