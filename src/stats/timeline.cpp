#include "stats/timeline.hpp"

#include <ostream>

#include "common/logging.hpp"

namespace rog {
namespace stats {

std::vector<TimelineSegment>
buildTimeline(const core::RunResult &result)
{
    std::vector<TimelineSegment> out;
    out.reserve(result.iterations.size() * 3);
    for (const auto &r : result.iterations) {
        const double total = r.compute_s + r.comm_s + r.stall_s;
        double start = r.end_time_s - total;
        auto push = [&](const char *phase, double duration) {
            if (duration <= 0.0)
                return;
            TimelineSegment seg;
            seg.worker = r.worker;
            seg.iteration = r.iteration;
            seg.phase = phase;
            seg.start_s = start;
            seg.duration_s = duration;
            out.push_back(seg);
            start += duration;
        };
        push("compute", r.compute_s);
        push("communicate", r.comm_s);
        push("stall", r.stall_s);
    }
    return out;
}

void
writeTimelineCsv(std::ostream &os,
                 const std::vector<TimelineSegment> &segments)
{
    os << "worker,iteration,phase,start_s,duration_s\n";
    for (const auto &s : segments) {
        os << s.worker << ',' << s.iteration << ',' << s.phase << ','
           << s.start_s << ',' << s.duration_s << '\n';
    }
}

Table
utilizationTable(const std::string &title,
                 const std::vector<core::RunResult> &results)
{
    Table t(title, {"system", "compute_pct", "communicate_pct",
                    "stall_pct", "device_seconds"});
    for (const auto &res : results) {
        double compute = 0.0, comm = 0.0, stall = 0.0;
        for (std::size_t w = 0; w < res.worker_compute_s.size(); ++w) {
            compute += res.worker_compute_s[w];
            comm += res.worker_comm_s[w];
            stall += res.worker_stall_s[w];
        }
        const double total = compute + comm + stall;
        ROG_ASSERT(total > 0.0, "empty run in utilization table");
        t.addRow({res.system, Table::num(100.0 * compute / total, 1),
                  Table::num(100.0 * comm / total, 1),
                  Table::num(100.0 * stall / total, 1),
                  Table::num(total, 1)});
    }
    return t;
}

} // namespace stats
} // namespace rog
