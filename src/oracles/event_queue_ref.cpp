#include "oracles/event_queue_ref.hpp"

#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace rog {
namespace sim {

MapEventQueue::~MapEventQueue()
{
    // Match the heap queue's documented teardown contract: drop
    // handlers run in reverse (time, seq) order.
    std::vector<std::function<void()>> drops;
    drops.reserve(events_.size());
    for (auto it = events_.rbegin(); it != events_.rend(); ++it)
        if (it->second.drop)
            drops.push_back(std::move(it->second.drop));
    events_.clear();
    for (auto &d : drops)
        d();
}

MapEventId
MapEventQueue::schedule(double time, std::function<void()> fire,
                        std::function<void()> drop)
{
    ROG_ASSERT(time >= now_, "cannot schedule into the past: ", time,
               " < ", now_);
    const Key key{time, next_seq_++};
    events_.emplace(key, Entry{std::move(fire), std::move(drop)});
    return MapEventId{key.time, key.seq};
}

void
MapEventQueue::cancel(MapEventId id)
{
    if (!id.valid())
        return;
    auto it = events_.find(Key{id.time, id.seq});
    if (it == events_.end())
        return;
    Entry entry = std::move(it->second);
    events_.erase(it);
    if (entry.drop)
        entry.drop();
}

bool
MapEventQueue::step()
{
    if (events_.empty())
        return false;
    auto it = events_.begin();
    now_ = it->first.time;
    // Move out before erasing: the callback may schedule or cancel.
    Entry entry = std::move(it->second);
    events_.erase(it);
    if (entry.fire)
        entry.fire();
    return true;
}

double
MapEventQueue::peekTime() const
{
    ROG_ASSERT(!events_.empty(), "peekTime on empty queue");
    return events_.begin()->first.time;
}

} // namespace sim
} // namespace rog
