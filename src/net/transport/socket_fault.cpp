#include "net/transport/socket_fault.hpp"

#include <cstdlib>
#include <sstream>
#include <vector>

namespace rog {
namespace net {
namespace transport {

namespace {

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size();
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s[0] == '-' || s[0] == '+')
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end == s.c_str() + s.size();
}

} // namespace

SocketFaultParseResult
SocketFaultPlan::tryParse(const std::string &spec)
{
    SocketFaultParseResult res;
    std::istringstream is(spec);
    std::string tok;
    const auto fail = [&](const std::string &what) {
        res.error = what;
        res.plan = SocketFaultPlan{};
        return res;
    };
    const auto prob = [&](const std::string &val, const char *name,
                          double &out) {
        if (!parseDouble(val, out) || out < 0.0 || out > 1.0) {
            res.error = std::string(name) +
                        " needs a probability in [0, 1], got '" + val +
                        "'";
            res.plan = SocketFaultPlan{}; // no partial state on reject.
            return false;
        }
        return true;
    };

    while (is >> tok) {
        const auto eq = tok.find('=');
        if (eq == std::string::npos)
            return fail("token '" + tok + "' is not key=value");
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (key == "seed") {
            if (!parseU64(val, res.plan.seed))
                return fail("seed needs an unsigned integer, got '" +
                            val + "'");
        } else if (key == "drop") {
            if (!prob(val, "drop", res.plan.drop_p))
                return res;
        } else if (key == "dup") {
            if (!prob(val, "dup", res.plan.dup_p))
                return res;
        } else if (key == "trunc") {
            if (!prob(val, "trunc", res.plan.trunc_p))
                return res;
        } else if (key == "corrupt") {
            if (!prob(val, "corrupt", res.plan.corrupt_p))
                return res;
        } else if (key == "delay") {
            // delay=<prob>[:<seconds>]
            const auto colon = val.find(':');
            const std::string p = val.substr(0, colon);
            if (!prob(p, "delay", res.plan.delay_p))
                return res;
            if (colon != std::string::npos) {
                const std::string secs = val.substr(colon + 1);
                if (!parseDouble(secs, res.plan.delay_s) ||
                    res.plan.delay_s < 0.0)
                    return fail("delay seconds must be non-negative, "
                                "got '" +
                                secs + "'");
            }
        } else if (key == "partition") {
            // partition=<begin>:<duration> (seconds, sender clock).
            const auto colon = val.find(':');
            if (colon == std::string::npos)
                return fail("partition needs begin:duration, got '" +
                            val + "'");
            double begin = 0.0;
            double dur = 0.0;
            if (!parseDouble(val.substr(0, colon), begin) ||
                begin < 0.0 ||
                !parseDouble(val.substr(colon + 1), dur) || dur <= 0.0)
                return fail("partition needs non-negative begin and "
                            "positive duration, got '" +
                            val + "'");
            res.plan.part_begin_s = begin;
            res.plan.part_end_s = begin + dur;
        } else {
            return fail("unknown fault key '" + key + "'");
        }
    }
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
