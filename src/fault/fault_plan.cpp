#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/text_line.hpp"

namespace rog {
namespace fault {

namespace {

/** Render a double so the spec round-trips exactly. */
std::string
num(double v)
{
    if (std::isinf(v))
        return "inf";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** A numeric field, reported in the spec grammar's own words. */
double
number(TextLine &f, const char *key)
{
    const std::string_view text = f.get<std::string_view>(key);
    double v = 0.0;
    if (!f.ok())
        return 0.0;
    if (text.empty())
        f.fail(detail::concat("expected key=value, got '", key, "='"));
    else if (!parseNumber(text, v))
        f.fail(detail::concat("bad number '", text, "'"));
    return v;
}

/** Non-negative link/worker index (rejects negatives and fractions). */
std::size_t
index(TextLine &f, const char *key)
{
    const double v = number(f, key);
    if (!f.ok())
        return 0;
    if (v < 0.0 || v != std::floor(v) || !std::isfinite(v)) {
        f.fail(detail::concat("'", key, "' must be a non-negative "
                              "integer, got ", num(v)));
        return 0;
    }
    return static_cast<std::size_t>(v);
}

} // namespace

FaultPlan
FaultPlan::random(std::uint64_t seed, const FaultPlanConfig &cfg)
{
    ROG_ASSERT(cfg.horizon_s > 0.0, "fault horizon must be positive");
    Rng rng(seed);
    FaultPlan plan;

    for (std::size_t l = 0; l < cfg.links; ++l) {
        const auto blackouts =
            rng.uniformInt(cfg.max_blackouts_per_link + 1);
        for (std::uint64_t i = 0; i < blackouts; ++i) {
            LinkFault f;
            f.link = l;
            f.start_s = rng.uniform(0.0, cfg.horizon_s);
            f.duration_s =
                rng.uniform(cfg.blackout_min_s, cfg.blackout_max_s);
            f.factor = 0.0;
            plan.link_faults.push_back(f);
        }
        const auto degrades =
            rng.uniformInt(cfg.max_degrades_per_link + 1);
        for (std::uint64_t i = 0; i < degrades; ++i) {
            LinkFault f;
            f.link = l;
            f.start_s = rng.uniform(0.0, cfg.horizon_s);
            f.duration_s =
                rng.uniform(cfg.degrade_min_s, cfg.degrade_max_s);
            f.factor = rng.uniform(cfg.degrade_min_factor,
                                   cfg.degrade_max_factor);
            plan.link_faults.push_back(f);
        }
        const auto truncations =
            rng.uniformInt(cfg.max_truncations_per_link + 1);
        for (std::uint64_t i = 0; i < truncations; ++i) {
            TransferFaultRule r;
            r.link = l;
            r.at_s = rng.uniform(0.0, cfg.horizon_s);
            r.truncate_bytes = rng.uniform(cfg.truncate_min_bytes,
                                           cfg.truncate_max_bytes);
            plan.transfer_faults.push_back(r);
        }
        const auto timeouts =
            rng.uniformInt(cfg.max_timeouts_per_link + 1);
        for (std::uint64_t i = 0; i < timeouts; ++i) {
            TransferFaultRule r;
            r.link = l;
            r.at_s = rng.uniform(0.0, cfg.horizon_s);
            r.force_timeout_s =
                rng.uniform(cfg.timeout_min_s, cfg.timeout_max_s);
            plan.transfer_faults.push_back(r);
        }
        // Corruption-class rules are guarded so a zero knob draws no
        // RNG values: plans from pre-transport seeds stay identical.
        if (cfg.max_corruptions_per_link > 0) {
            const auto n =
                rng.uniformInt(cfg.max_corruptions_per_link + 1);
            for (std::uint64_t i = 0; i < n; ++i) {
                TransferFaultRule r;
                r.link = l;
                r.at_s = rng.uniform(0.0, cfg.horizon_s);
                r.corrupt = true;
                plan.transfer_faults.push_back(r);
            }
        }
        if (cfg.max_duplicates_per_link > 0) {
            const auto n =
                rng.uniformInt(cfg.max_duplicates_per_link + 1);
            for (std::uint64_t i = 0; i < n; ++i) {
                TransferFaultRule r;
                r.link = l;
                r.at_s = rng.uniform(0.0, cfg.horizon_s);
                r.duplicate = true;
                plan.transfer_faults.push_back(r);
            }
        }
    }

    for (std::size_t w = 0; w < cfg.workers; ++w) {
        if (rng.uniform() < cfg.crash_prob) {
            ChurnEvent e;
            e.worker = w;
            e.at_s = rng.uniform(0.0, cfg.horizon_s);
            e.detect_s = cfg.detect_s;
            if (rng.uniform() < cfg.rejoin_prob)
                e.rejoin_s =
                    e.at_s + rng.uniform(1.0, 0.5 * cfg.horizon_s);
            plan.churn.push_back(e);
        } else if (rng.uniform() < cfg.leave_prob) {
            ChurnEvent e;
            e.worker = w;
            e.at_s = rng.uniform(0.0, cfg.horizon_s);
            e.graceful = true;
            plan.churn.push_back(e);
        }
    }

    // Guarded like the corruption knobs: zero probability, zero draws.
    if (cfg.server_crash_prob > 0.0 && rng.uniform() <
                                           cfg.server_crash_prob) {
        ROG_ASSERT(cfg.server_crash_max_iter >= 1,
                   "server_crash_max_iter must be at least 1");
        ServerCrashEvent e;
        e.at_iter = 1 + static_cast<std::int64_t>(rng.uniformInt(
                            static_cast<std::uint64_t>(
                                cfg.server_crash_max_iter)));
        plan.server_crashes.push_back(e);
    }

    plan.validate();
    return plan;
}

FaultPlan::ParseResult
FaultPlan::tryParse(const std::string &spec)
{
    ParseResult out;
    std::istringstream is(spec);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        TextLine f(line, line_no);
        const std::string_view keyword = f.word();
        if (keyword == "blackout" || keyword == "degrade") {
            keyword == "degrade" ? f.only({"link", "start", "dur", "factor"})
                                 : f.only({"link", "start", "dur"});
            LinkFault lf;
            lf.link = index(f, "link");
            lf.start_s = number(f, "start");
            lf.duration_s = number(f, "dur");
            lf.factor = keyword == "degrade" ? number(f, "factor") : 0.0;
            out.plan.link_faults.push_back(lf);
        } else if (keyword == "truncate") {
            f.only({"link", "at", "bytes"});
            TransferFaultRule r;
            r.link = index(f, "link");
            r.at_s = number(f, "at");
            r.truncate_bytes = number(f, "bytes");
            out.plan.transfer_faults.push_back(r);
        } else if (keyword == "timeout") {
            f.only({"link", "at", "after"});
            TransferFaultRule r;
            r.link = index(f, "link");
            r.at_s = number(f, "at");
            r.force_timeout_s = number(f, "after");
            out.plan.transfer_faults.push_back(r);
        } else if (keyword == "corrupt" || keyword == "duplicate") {
            f.only({"link", "at"});
            TransferFaultRule r;
            r.link = index(f, "link");
            r.at_s = number(f, "at");
            r.corrupt = keyword == "corrupt";
            r.duplicate = keyword == "duplicate";
            out.plan.transfer_faults.push_back(r);
        } else if (keyword == "crash") {
            f.only({"worker", "at", "rejoin", "detect"});
            ChurnEvent e;
            e.worker = index(f, "worker");
            e.at_s = number(f, "at");
            e.rejoin_s = f.has("rejoin") ? number(f, "rejoin") : kNever;
            e.detect_s = f.has("detect") ? number(f, "detect") : kNever;
            out.plan.churn.push_back(e);
        } else if (keyword == "leave") {
            f.only({"worker", "at"});
            ChurnEvent e;
            e.worker = index(f, "worker");
            e.at_s = number(f, "at");
            e.graceful = true;
            out.plan.churn.push_back(e);
        } else if (keyword == "server_crash") {
            f.only({"iter"});
            ServerCrashEvent e;
            e.at_iter = static_cast<std::int64_t>(index(f, "iter"));
            out.plan.server_crashes.push_back(e);
        } else {
            f.fail(detail::concat("unknown keyword '", keyword, "'"));
        }
        if (!f.ok()) {
            out.error = "fault spec " + f.error() + " in: " + line;
            out.plan = FaultPlan{};
            return out;
        }
    }
    std::string invalid = out.plan.validationError();
    if (!invalid.empty()) {
        out.error = std::move(invalid);
        out.plan = FaultPlan{};
    }
    return out;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    ParseResult res = tryParse(spec);
    if (!res.ok())
        ROG_FATAL(res.error);
    return std::move(res.plan);
}

std::string
FaultPlan::toSpec() const
{
    std::ostringstream os;
    for (const auto &f : link_faults) {
        if (f.factor == 0.0) {
            os << "blackout link=" << f.link << " start="
               << num(f.start_s) << " dur=" << num(f.duration_s)
               << '\n';
        } else {
            os << "degrade link=" << f.link << " start="
               << num(f.start_s) << " dur=" << num(f.duration_s)
               << " factor=" << num(f.factor) << '\n';
        }
    }
    for (const auto &r : transfer_faults) {
        if (std::isfinite(r.truncate_bytes)) {
            os << "truncate link=" << r.link << " at=" << num(r.at_s)
               << " bytes=" << num(r.truncate_bytes) << '\n';
        }
        if (std::isfinite(r.force_timeout_s)) {
            os << "timeout link=" << r.link << " at=" << num(r.at_s)
               << " after=" << num(r.force_timeout_s) << '\n';
        }
        if (r.corrupt) {
            os << "corrupt link=" << r.link << " at=" << num(r.at_s)
               << '\n';
        }
        if (r.duplicate) {
            os << "duplicate link=" << r.link << " at=" << num(r.at_s)
               << '\n';
        }
    }
    for (const auto &e : churn) {
        if (e.graceful) {
            os << "leave worker=" << e.worker << " at=" << num(e.at_s)
               << '\n';
        } else {
            os << "crash worker=" << e.worker << " at=" << num(e.at_s);
            if (std::isfinite(e.rejoin_s))
                os << " rejoin=" << num(e.rejoin_s);
            if (std::isfinite(e.detect_s))
                os << " detect=" << num(e.detect_s);
            os << '\n';
        }
    }
    for (const auto &e : server_crashes)
        os << "server_crash iter=" << e.at_iter << '\n';
    return os.str();
}

bool
FaultPlan::empty() const
{
    return link_faults.empty() && transfer_faults.empty() &&
           churn.empty() && server_crashes.empty();
}

std::string
FaultPlan::validationError() const
{
    for (const auto &f : link_faults) {
        if (!(f.start_s >= 0.0))
            return detail::concat("link fault start must be "
                                  "non-negative, got ", num(f.start_s));
        if (!(f.duration_s >= 0.0))
            return detail::concat("link fault duration must be "
                                  "non-negative, got ",
                                  num(f.duration_s));
        if (!(f.factor >= 0.0 && f.factor <= 1.0))
            return detail::concat("link fault factor must be in "
                                  "[0, 1], got ", num(f.factor));
    }
    for (const auto &r : transfer_faults) {
        if (!(r.at_s >= 0.0))
            return detail::concat("transfer fault time must be "
                                  "non-negative, got ", num(r.at_s));
        if (!(r.truncate_bytes >= 0.0))
            return detail::concat("truncation bytes must be "
                                  "non-negative, got ",
                                  num(r.truncate_bytes));
        if (!(r.force_timeout_s > 0.0))
            return detail::concat("forced timeout must be positive, "
                                  "got ", num(r.force_timeout_s));
    }
    for (const auto &e : churn) {
        if (!(e.at_s >= 0.0))
            return detail::concat("churn time must be non-negative, "
                                  "got ", num(e.at_s));
        if (e.graceful)
            continue;
        if (!std::isfinite(e.rejoin_s) && !std::isfinite(e.detect_s))
            return detail::concat(
                "silent crash of worker ", e.worker,
                " needs a finite rejoin or detect time, or peers "
                "could stall forever on the ghost");
        if (std::isfinite(e.rejoin_s) && !(e.rejoin_s >= e.at_s))
            return detail::concat("rejoin (", num(e.rejoin_s),
                                  ") must not precede the crash (",
                                  num(e.at_s), ")");
        if (std::isfinite(e.detect_s) && !(e.detect_s >= 0.0))
            return detail::concat("detection delay must be "
                                  "non-negative, got ",
                                  num(e.detect_s));
    }
    for (const auto &e : server_crashes) {
        if (e.at_iter < 1)
            return detail::concat("server crash iteration must be at "
                                  "least 1, got ", e.at_iter);
    }
    return {};
}

void
FaultPlan::validate() const
{
    const std::string err = validationError();
    ROG_ASSERT(err.empty(), "invalid fault plan: ", err);
}

double
FaultPlan::maxLinkFaultEnd() const
{
    double end = 0.0;
    for (const auto &f : link_faults)
        end = std::max(end, f.endS());
    return end;
}

net::BandwidthTrace
applyLinkFaults(const net::BandwidthTrace &base,
                std::span<const LinkFault> faults, std::size_t link,
                double horizon_s)
{
    const double step = base.stepSeconds();
    double span = std::max(horizon_s, base.durationSeconds());
    for (const auto &f : faults)
        if (f.link == link)
            span = std::max(span, f.endS());
    const auto samples =
        static_cast<std::size_t>(std::ceil(span / step - 1e-9));
    std::vector<double> out(std::max<std::size_t>(samples, 1));
    for (std::size_t i = 0; i < out.size(); ++i) {
        const double t_mid = (static_cast<double>(i) + 0.5) * step;
        double v = base.bytesPerSecAt(t_mid);
        for (const auto &f : faults) {
            if (f.link == link && t_mid >= f.start_s &&
                t_mid < f.endS()) {
                v *= f.factor;
            }
        }
        out[i] = v;
    }
    return net::BandwidthTrace(std::move(out), step);
}

} // namespace fault
} // namespace rog
