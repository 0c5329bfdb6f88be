/**
 * @file
 * Device state timelines from run results.
 *
 * The paper obtains per-state power "by matching power consumption
 * records with the training system status log" (Sec. VI-A); the status
 * log is exactly what this module reconstructs: per worker, per
 * iteration, the compute/communicate/stall segments laid out in
 * virtual time, exportable as long-form CSV for Gantt-style plots,
 * plus aggregate utilization figures.
 */
#ifndef ROG_STATS_TIMELINE_HPP
#define ROG_STATS_TIMELINE_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/engine.hpp"

namespace rog {
namespace stats {

/** One contiguous state segment of one device. */
struct TimelineSegment
{
    std::size_t worker = 0;
    std::size_t iteration = 0;
    std::string phase; //!< "compute" | "communicate" | "stall".
    double start_s = 0.0;
    double duration_s = 0.0;
};

/**
 * Reconstruct per-iteration segments from a run. Within an iteration
 * the engine's phase order is compute, then communication and stall
 * interleavings which are reported as one communicate and one stall
 * segment each (durations are exact; internal interleaving is not
 * recorded per event).
 */
std::vector<TimelineSegment>
buildTimeline(const core::RunResult &result);

/** Write segments as long-form CSV (worker,iteration,phase,start,dur). */
void writeTimelineCsv(std::ostream &os,
                      const std::vector<TimelineSegment> &segments);

/**
 * Utilization summary per system: the share of total device time spent
 * in each state — the quantity ROG's stall reduction moves.
 */
Table utilizationTable(const std::string &title,
                       const std::vector<core::RunResult> &results);

} // namespace stats
} // namespace rog

#endif // ROG_STATS_TIMELINE_HPP
