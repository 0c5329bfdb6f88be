#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace rog {
namespace fault {

FaultInjector::FaultInjector(sim::Simulation &sim, const FaultPlan &plan)
    : sim_(sim), plan_(plan),
      rule_used_(plan.transfer_faults.size(), false)
{
    plan_.validate();
}

void
FaultInjector::attach(net::Channel &channel)
{
    channel.setFaultPolicy(this);
}

void
FaultInjector::scheduleChurn(ChurnHooks hooks)
{
    ROG_ASSERT(!churn_scheduled_, "churn already scheduled");
    churn_scheduled_ = true;
    hooks_ = std::move(hooks);
    for (const ChurnEvent &e : plan_.churn) {
        // Events in the plan's past (the sim usually starts at 0, but
        // an injector can be created mid-run) fire immediately.
        const double now = sim_.now();
        if (e.graceful) {
            if (hooks_.on_leave)
                sim_.at(std::max(e.at_s, now),
                        [this, &e] { hooks_.on_leave(e); });
            continue;
        }
        if (hooks_.on_crash)
            sim_.at(std::max(e.at_s, now),
                    [this, &e] { hooks_.on_crash(e); });
        if (hooks_.on_detect && std::isfinite(e.detect_s))
            sim_.at(std::max(e.at_s + e.detect_s, now),
                    [this, &e] { hooks_.on_detect(e); });
        if (hooks_.on_rejoin && std::isfinite(e.rejoin_s))
            sim_.at(std::max(e.rejoin_s, now),
                    [this, &e] { hooks_.on_rejoin(e); });
    }
}

net::BandwidthTrace
FaultInjector::perturbTrace(const net::BandwidthTrace &base,
                            std::size_t link, double horizon_s) const
{
    return applyLinkFaults(base, plan_.link_faults, link, horizon_s);
}

net::FaultDecision
FaultInjector::onTransferStart(net::LinkId link, double bytes,
                               double now)
{
    (void)bytes;
    net::FaultDecision d;
    for (std::size_t i = 0; i < plan_.transfer_faults.size(); ++i) {
        const TransferFaultRule &r = plan_.transfer_faults[i];
        if (rule_used_[i] || r.link != link || now < r.at_s)
            continue;
        rule_used_[i] = true;
        ++rules_fired_;
        d.deliverable_bytes =
            std::min(d.deliverable_bytes, r.truncate_bytes);
        d.forced_timeout = std::min(d.forced_timeout, r.force_timeout_s);
        d.corrupt = r.corrupt;
        d.duplicate = r.duplicate;
        // One rule per transfer: remaining matches wait for the next.
        break;
    }
    return d;
}

} // namespace fault
} // namespace rog
