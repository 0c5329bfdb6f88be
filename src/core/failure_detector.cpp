#include "core/failure_detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace rog {
namespace core {

namespace {

// EWMA weight for inter-arrival estimates: light enough to adapt to
// a congested link within a handful of beats, heavy enough that one
// delayed beat does not halve the estimate.
constexpr double kIntervalAlpha = 0.25;

constexpr double kLn10 = 2.302585092994046;

} // namespace

const char *
memberStateName(MemberState s)
{
    switch (s) {
    case MemberState::Alive: return "alive";
    case MemberState::Suspect: return "suspect";
    case MemberState::Dead: return "dead";
    case MemberState::Rejoining: return "rejoining";
    }
    return "?";
}

std::string
FailureDetectorConfig::validationError() const
{
    if (heartbeat_interval_s <= 0.0)
        return "heartbeat_interval_s must be positive";
    if (check_interval_s <= 0.0)
        return "check_interval_s must be positive";
    if (phi_suspect <= 0.0 || phi_evict < phi_suspect)
        return "need 0 < phi_suspect <= phi_evict";
    if (detection_bound_s <= heartbeat_interval_s)
        return "detection_bound_s must exceed the heartbeat interval";
    return "";
}

MembershipTracker::MembershipTracker(std::size_t workers,
                                     const FailureDetectorConfig &cfg)
    : cfg_(cfg), members_(workers)
{
    ROG_ASSERT(workers > 0, "tracker needs at least one worker");
    const std::string err = cfg.validationError();
    if (!err.empty())
        ROG_FATAL("bad failure detector config: ", err);
}

void
MembershipTracker::observeHeartbeat(std::size_t worker, double now)
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    Member &m = members_[worker];
    if (!m.active)
        return;
    if (m.samples > 0) {
        const double gap = std::max(now - m.last_arrival, 0.0);
        m.mean_interval = m.samples == 1
                              ? gap
                              : (1.0 - kIntervalAlpha) * m.mean_interval +
                                    kIntervalAlpha * gap;
    }
    m.last_arrival = now;
    ++m.samples;
    // A heartbeat from a Suspect clears the suspicion immediately;
    // Dead workers stay dead until the engine resyncs them (their
    // version rows were already reclaimed).
    if (m.state == MemberState::Suspect)
        transition(m, worker, now, MemberState::Alive, 0.0, nullptr);
}

double
MembershipTracker::silence(std::size_t worker, double now) const
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    const Member &m = members_[worker];
    return std::max(now - m.last_arrival, 0.0);
}

double
MembershipTracker::phi(std::size_t worker, double now) const
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    const Member &m = members_[worker];
    if (m.samples < cfg_.min_samples)
        return 0.0;
    // Exponential arrival model: P(silence > t) = exp(-t / mean), so
    // phi = -log10 P = silence / (mean * ln 10). The expected gap is
    // at least the configured send interval even if observed arrivals
    // bunched up tighter.
    const double mean =
        std::max(m.mean_interval, cfg_.heartbeat_interval_s);
    return silence(worker, now) / (mean * kLn10);
}

void
MembershipTracker::transition(Member &m, std::size_t worker, double now,
                              MemberState to, double phi_now,
                              std::vector<MembershipEvent> *out)
{
    ROG_ASSERT(m.state != to, "self transition");
    MembershipEvent e;
    e.time = now;
    e.worker = worker;
    e.from = m.state;
    e.to = to;
    e.phi = phi_now;
    m.state = to;
    history_.push_back(e);
    if (out)
        out->push_back(e);
}

std::vector<MembershipEvent>
MembershipTracker::evaluate(double now)
{
    std::vector<MembershipEvent> out;
    for (std::size_t w = 0; w < members_.size(); ++w) {
        Member &m = members_[w];
        if (!m.active)
            continue;
        if (m.state != MemberState::Alive &&
            m.state != MemberState::Suspect)
            continue;
        // The hard bound counts silence from the last arrival — or
        // from group start / resync for a worker that never got a
        // beat out — so even a crash before the first heartbeat is
        // detected within the bound.
        const double p = phi(w, now);
        const bool over_bound =
            silence(w, now) >= cfg_.detection_bound_s;
        if (over_bound || p >= cfg_.phi_evict) {
            if (m.state == MemberState::Alive)
                transition(m, w, now, MemberState::Suspect, p, &out);
            transition(m, w, now, MemberState::Dead, p, &out);
        } else if (p >= cfg_.phi_suspect &&
                   m.state == MemberState::Alive) {
            transition(m, w, now, MemberState::Suspect, p, &out);
        }
    }
    return out;
}

MemberState
MembershipTracker::state(std::size_t worker) const
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    return members_[worker].state;
}

void
MembershipTracker::markRejoining(std::size_t worker, double now)
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    Member &m = members_[worker];
    if (!m.active || m.state == MemberState::Rejoining)
        return;
    ROG_ASSERT(m.state == MemberState::Dead,
               "only a dead worker can start rejoining");
    transition(m, worker, now, MemberState::Rejoining, 0.0, nullptr);
}

void
MembershipTracker::markRejoined(std::size_t worker, double now)
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    Member &m = members_[worker];
    if (!m.active)
        return;
    ROG_ASSERT(m.state == MemberState::Rejoining,
               "markRejoined without markRejoining");
    m.last_arrival = now;
    m.mean_interval = 0.0;
    m.samples = 0;
    transition(m, worker, now, MemberState::Alive, 0.0, nullptr);
}

void
MembershipTracker::resetStats(std::size_t worker, double now)
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    Member &m = members_[worker];
    if (!m.active)
        return;
    ROG_ASSERT(m.state == MemberState::Alive ||
                   m.state == MemberState::Suspect,
               "resetStats on a dead worker; use markRejoining");
    m.last_arrival = now;
    m.mean_interval = 0.0;
    m.samples = 0;
    if (m.state == MemberState::Suspect)
        transition(m, worker, now, MemberState::Alive, 0.0, nullptr);
}

void
MembershipTracker::deactivate(std::size_t worker)
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    members_[worker].active = false;
}

bool
MembershipTracker::active(std::size_t worker) const
{
    ROG_ASSERT(worker < members_.size(), "worker out of range");
    return members_[worker].active;
}

std::size_t
MembershipTracker::participantCount() const
{
    std::size_t n = 0;
    for (const Member &m : members_)
        if (m.active && (m.state == MemberState::Alive ||
                         m.state == MemberState::Suspect))
            ++n;
    return n;
}

} // namespace core
} // namespace rog
