/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are ordered by (time, insertion sequence) so simultaneous
 * events fire in insertion order — runs are bit-reproducible. Events
 * may be cancelled; an event that is dropped without firing (cancelled
 * or still pending at queue destruction) invokes its drop handler so
 * owners of resources captured in the closure (notably suspended
 * coroutine frames) can release them.
 *
 * Implementation (the fleet-scale event core): a 4-ary min-heap of
 * (time, seq, slot) entries over a free-list node arena. The sort key
 * is embedded in the heap entry itself, so every sift comparison
 * touches only the contiguous heap array — never the closure arena —
 * which keeps the compare path in cache at fleet-scale queue depths.
 * Scheduling an event never allocates per-event nodes — the arena
 * grows geometrically and slots recycle through the free list — and
 * the fire/drop closures live inline in the node via SmallFn's wide
 * small-buffer storage. EventId carries the arena slot, so cancel() is
 * an O(1) handle check: the closures are dropped and the slot is
 * recycled immediately; the heap entry goes stale (its seq no longer
 * matches the slot's) and is skimmed off lazily when it surfaces at
 * the top. Firing order is exactly the (time, seq) lexicographic
 * order the previous std::map implementation produced (verified by a
 * differential fuzz oracle against oracles/event_queue_ref.hpp).
 *
 * Destruction guarantee: drop handlers of still-pending events run in
 * deterministic *reverse* key order — latest (time, seq) first — so
 * teardown unwinds like a stack regardless of heap shape. Replay-
 * sensitive cleanup (e.g. chained process frames) can rely on this
 * order; it is part of the queue's contract, not an accident of the
 * container.
 */
#ifndef ROG_SIM_EVENT_QUEUE_HPP
#define ROG_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <vector>

#include "sim/small_fn.hpp"

namespace rog {
namespace sim {

/** Opaque handle to a scheduled event (for cancellation). */
struct EventId
{
    double time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0; //!< arena slot (O(1) cancel lookup).

    bool valid() const { return seq != 0; }
};

/** A time-ordered queue of callbacks. */
class EventQueue
{
  public:
    /** Handle type (generic code templated over queue kinds). */
    using id_type = EventId;

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fire at absolute @p time.
     *
     * @param drop invoked instead of @p fire if the event is cancelled
     *        or destroyed unfired (may be empty).
     * @pre time >= now()
     */
    EventId schedule(double time, SmallFn fire, SmallFn drop = {});

    /** Cancel a pending event; no-op if it already fired. O(1): the
     *  drop handler runs immediately, the heap entry dies lazily. */
    void cancel(EventId id);

    /** Fire the earliest event; returns false if the queue is empty. */
    bool step();

    /** True if no events are pending. */
    bool empty() const { return live_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return live_; }

    /** Current simulated time (time of the last fired event). */
    double now() const { return now_; }

    /** Time of the earliest pending event. @pre !empty() */
    double peekTime() const;

  private:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** Arena slots use 20 bits of the packed heap key: up to ~1M
     *  simultaneously pending events, far beyond any fleet sweep. */
    static constexpr std::uint32_t kSlotBits = 20;
    static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

    /**
     * Heap entry: the full sort key plus the arena slot packed into a
     * single 128-bit integer, so sift comparisons never dereference
     * into the arena AND compile to one branchless compare — the
     * child-min selection in siftDown becomes cmov instead of a
     * data-dependent (hence unpredictable) branch, which is the
     * difference between ~30 and ~100 ns per pop at fleet depths.
     *
     * Layout: time-bits(64) | seq(44) | slot(20). Simulated time is
     * never negative (schedule() asserts time >= now >= 0), so the
     * IEEE-754 bit pattern of the double sorts identically to its
     * value; seq breaks ties exactly as the old std::map key did, and
     * slot in the low bits never influences order because seqs are
     * unique.
     */
    struct HeapEntry
    {
        unsigned __int128 key;

        static HeapEntry
        make(double time, std::uint64_t seq, std::uint32_t slot)
        {
            std::uint64_t tb;
            __builtin_memcpy(&tb, &time, sizeof tb);
            return HeapEntry{
                (static_cast<unsigned __int128>(tb) << 64) |
                (seq << kSlotBits) | slot};
        }

        double
        time() const
        {
            const std::uint64_t tb =
                static_cast<std::uint64_t>(key >> 64);
            double t;
            __builtin_memcpy(&t, &tb, sizeof t);
            return t;
        }
        std::uint64_t
        seq() const
        {
            return static_cast<std::uint64_t>(key) >> kSlotBits;
        }
        std::uint32_t
        slot() const
        {
            return static_cast<std::uint32_t>(key & kSlotMask);
        }
    };

    /** (time, seq) lexicographic order — identical to the old map's. */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return a.key < b.key;
    }

    /** A heap entry whose event was cancelled (slot freed or reused;
     *  seq values never repeat, so a mismatch is definitive). */
    bool
    stale(const HeapEntry &e) const
    {
        return seq_[e.slot()] != e.seq();
    }

    std::uint32_t allocNode();
    void freeNode(std::uint32_t slot);
    void heapPush(const HeapEntry &e);
    HeapEntry heapPopTop();
    void siftUp(std::size_t pos);
    void siftDown(std::size_t pos);
    /** Discard stale entries sitting at the heap top so the top is
     *  live whenever live_ > 0; rebuilds the whole heap (filter +
     *  Floyd heapify, O(n)) once stale entries outnumber live ones,
     *  so cancel-heavy phases never pay per-stale-pop sift costs. */
    void pruneTop();
    void compact();

    // Arena in struct-of-arrays layout: the handle-validation path
    // (cancel, stale checks) touches only the small seq_ array, which
    // stays L1-resident at fleet depths where an array-of-structs node
    // arena would spill L2. Drop closures are rare, so drops_ lines
    // are only touched for events that actually carry one (has_drop_).
    std::vector<std::uint64_t> seq_;       //!< 0 = slot free.
    std::vector<SmallFn> fires_;
    std::vector<SmallFn> drops_;
    std::vector<std::uint8_t> has_drop_;
    std::vector<std::uint32_t> next_free_; //!< free-list links.
    std::vector<HeapEntry> heap_;          //!< 4-ary min-heap.
    std::uint32_t free_head_ = kNone;
    std::size_t live_ = 0;
    double now_ = 0.0;
    std::uint64_t next_seq_ = 1;
};

} // namespace sim
} // namespace rog

#endif // ROG_SIM_EVENT_QUEUE_HPP
