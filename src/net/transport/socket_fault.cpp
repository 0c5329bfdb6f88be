#include "net/transport/socket_fault.hpp"

#include <cmath>

#include "common/text_line.hpp"

namespace rog {
namespace net {
namespace transport {

SocketFaultParseResult
SocketFaultPlan::tryParse(const std::string &spec)
{
    SocketFaultParseResult res;
    SocketFaultPlan &plan = res.plan;
    TextLine r(spec);
    r.only({"seed", "drop", "dup", "trunc", "corrupt", "delay", "partition"},
           "fault key");
    const auto quoted = [](std::string_view v) {
        return "'" + std::string(v) + "'";
    };
    const auto prob = [&](const char *key, std::string_view text,
                          double &out) {
        if (!parseNumber(text, out) || out < 0.0 || out > 1.0)
            r.fail(std::string(key) +
                   " needs a probability in [0, 1], got " + quoted(text));
    };
    if (r.has("seed")) {
        const std::string_view v = r.get<std::string_view>("seed");
        if (!parseNumber(v, plan.seed))
            r.fail("seed needs an unsigned integer, got " + quoted(v));
    }
    const std::pair<const char *, double *> probs[] = {
        {"drop", &plan.drop_p},
        {"dup", &plan.dup_p},
        {"trunc", &plan.trunc_p},
        {"corrupt", &plan.corrupt_p},
    };
    for (const auto &[key, out] : probs)
        if (r.has(key))
            prob(key, r.get<std::string_view>(key), *out);
    if (r.has("delay")) {
        // delay=<prob>[:<seconds>]
        const std::string_view v = r.get<std::string_view>("delay");
        const std::size_t colon = v.find(':');
        prob("delay", v.substr(0, colon), plan.delay_p);
        if (colon != std::string_view::npos) {
            const std::string_view secs = v.substr(colon + 1);
            if (!parseNumber(secs, plan.delay_s) || plan.delay_s < 0.0 ||
                std::isinf(plan.delay_s))
                r.fail("delay seconds must be non-negative and finite, "
                       "got " +
                       quoted(secs));
        }
    }
    if (r.has("partition")) {
        // partition=<begin>:<duration> (seconds, sender clock).
        const std::string_view v = r.get<std::string_view>("partition");
        const std::size_t colon = v.find(':');
        double begin = 0.0;
        double dur = 0.0;
        if (colon == std::string_view::npos)
            r.fail("partition needs begin:duration, got " + quoted(v));
        else if (!parseNumber(v.substr(0, colon), begin) || begin < 0.0 ||
                 !parseNumber(v.substr(colon + 1), dur) || dur <= 0.0)
            r.fail("partition needs non-negative begin and positive "
                   "duration, got " +
                   quoted(v));
        plan.part_begin_s = begin;
        plan.part_end_s = begin + dur;
    }
    res.error = r.error();
    if (!res.ok())
        plan = SocketFaultPlan{}; // no partial state on reject.
    return res;
}

SocketFaultInjector::SocketFaultInjector(const SocketFaultPlan &plan)
    : plan_(plan), rng_(plan.seed)
{
}

DatagramFate
SocketFaultInjector::next()
{
    ++decided_;
    DatagramFate fate;
    // Fixed draw order keeps the stream reproducible regardless of
    // which faults are enabled: every decision consumes its draws.
    const double u_drop = rng_.uniform();
    const double u_dup = rng_.uniform();
    const double u_trunc = rng_.uniform();
    const double u_trunc_frac = rng_.uniform();
    const double u_corrupt = rng_.uniform();
    const double u_delay = rng_.uniform();

    fate.drop = u_drop < plan_.drop_p;
    fate.duplicate = u_dup < plan_.dup_p;
    if (u_trunc < plan_.trunc_p)
        fate.keep_frac = u_trunc_frac; // keep a uniform prefix.
    fate.corrupt = u_corrupt < plan_.corrupt_p;
    if (u_delay < plan_.delay_p)
        fate.delay_s = plan_.delay_s;
    return fate;
}

DatagramFate
SocketFaultInjector::next(double now_s)
{
    // Layered after the draws so the stream past the window matches
    // a never-partitioned run with the same seed.
    DatagramFate fate = next();
    if (plan_.partitioned(now_s))
        fate.drop = true;
    return fate;
}

} // namespace transport
} // namespace net
} // namespace rog
