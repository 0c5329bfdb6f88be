#include "stats/run_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/logging.hpp"

namespace rog {
namespace stats {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
} // namespace

std::vector<MergedCheckpoint>
mergeCheckpoints(const core::RunResult &result)
{
    struct Acc
    {
        double time = 0.0, energy = 0.0, metric = 0.0;
        std::size_t count = 0;
    };
    std::map<std::size_t, Acc> by_iter;
    for (const auto &c : result.checkpoints) {
        Acc &a = by_iter[c.iteration];
        a.time += c.time_s;
        a.energy += c.energy_j;
        a.metric += c.metric;
        ++a.count;
    }
    std::vector<MergedCheckpoint> out;
    for (const auto &[iter, a] : by_iter) {
        if (a.count != result.workers)
            continue; // an iteration not every worker reached.
        MergedCheckpoint m;
        m.iteration = iter;
        const auto n = static_cast<double>(a.count);
        m.mean_time_s = a.time / n;
        m.mean_energy_j = a.energy / n;
        m.mean_metric = a.metric / n;
        out.push_back(m);
    }
    return out;
}

namespace {

/** Generic "first x at which metric crosses target" scan. */
double
firstCrossing(const std::vector<MergedCheckpoint> &curve, double target,
              bool lower_is_better,
              double (*axis)(const MergedCheckpoint &))
{
    auto reached = [&](double m) {
        return lower_is_better ? m <= target : m >= target;
    };
    for (std::size_t i = 0; i < curve.size(); ++i) {
        if (!reached(curve[i].mean_metric))
            continue;
        if (i == 0)
            return axis(curve[0]);
        // Interpolate between the bracketing checkpoints.
        const double m0 = curve[i - 1].mean_metric;
        const double m1 = curve[i].mean_metric;
        const double x0 = axis(curve[i - 1]);
        const double x1 = axis(curve[i]);
        if (m1 == m0)
            return x1;
        const double t = (target - m0) / (m1 - m0);
        return x0 + (x1 - x0) * std::clamp(t, 0.0, 1.0);
    }
    return kNaN;
}

double
timeAxis(const MergedCheckpoint &c)
{
    return c.mean_time_s;
}

double
energyAxis(const MergedCheckpoint &c)
{
    return c.mean_energy_j;
}

} // namespace

double
energyToReach(const std::vector<MergedCheckpoint> &curve, double target,
              bool lower_is_better)
{
    return firstCrossing(curve, target, lower_is_better, energyAxis);
}

double
timeToReach(const std::vector<MergedCheckpoint> &curve, double target,
            bool lower_is_better)
{
    return firstCrossing(curve, target, lower_is_better, timeAxis);
}

double
metricAtTime(const std::vector<MergedCheckpoint> &curve, double t)
{
    if (curve.empty())
        return kNaN;
    if (t <= curve.front().mean_time_s)
        return curve.front().mean_metric;
    for (std::size_t i = 1; i < curve.size(); ++i) {
        if (t > curve[i].mean_time_s)
            continue;
        const double x0 = curve[i - 1].mean_time_s;
        const double x1 = curve[i].mean_time_s;
        const double f = (x1 == x0) ? 1.0 : (t - x0) / (x1 - x0);
        return curve[i - 1].mean_metric +
               f * (curve[i].mean_metric - curve[i - 1].mean_metric);
    }
    return curve.back().mean_metric;
}

double
metricAtIteration(const std::vector<MergedCheckpoint> &curve,
                  std::size_t iter)
{
    if (curve.empty())
        return kNaN;
    if (iter <= curve.front().iteration)
        return curve.front().mean_metric;
    for (std::size_t i = 1; i < curve.size(); ++i) {
        if (iter > curve[i].iteration)
            continue;
        const auto x0 = static_cast<double>(curve[i - 1].iteration);
        const auto x1 = static_cast<double>(curve[i].iteration);
        const double f =
            (x1 == x0) ? 1.0 : (static_cast<double>(iter) - x0) / (x1 - x0);
        return curve[i - 1].mean_metric +
               f * (curve[i].mean_metric - curve[i - 1].mean_metric);
    }
    return curve.back().mean_metric;
}

} // namespace stats
} // namespace rog
