/**
 * @file
 * Discrete-event simulation kernel.
 *
 * An EventQueue orders Event objects by (tick, priority, insertion
 * sequence) and processes them in order. Member events are owned by their
 * creators (typically as member objects of model classes); the queue only
 * references them, mirroring gem5's design. Fire-and-forget callbacks
 * (sim/one_shot.hh) run in one-shot nodes the queue itself owns.
 */

#ifndef CNVM_SIM_EVENTQ_HH
#define CNVM_SIM_EVENTQ_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cnvm
{

class EventQueue;

/**
 * Base class for all schedulable work. Derived classes implement
 * process(), which runs when simulated time reaches the scheduled tick.
 */
class Event
{
  public:
    /**
     * Priorities break ties between events scheduled for the same tick;
     * lower values run first.
     */
    enum Priority : int
    {
        /** Drain/maintenance activity that should observe a settled state. */
        MaxPriority = 100,
        /** Normal model activity. */
        DefaultPriority = 50,
        /** Clock-edge style activity that should run before models react. */
        MinPriority = 0,
    };

    explicit Event(std::string name = "event",
                   int priority = DefaultPriority);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the event queue when the event's tick arrives. */
    virtual void process() = 0;

    /** True while the event sits in an event queue. */
    bool scheduled() const { return queue != nullptr; }

    /** The tick this event is (or was last) scheduled for. */
    Tick when() const { return _when; }

    /** Human-readable name for diagnostics. */
    const std::string &name() const { return _name; }

    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    std::string _name;
    int _priority;
    Tick _when = 0;
    std::uint64_t _seq = 0;
    EventQueue *queue = nullptr;

    /** Slot in the owning queue's heap, maintained by the queue. */
    std::size_t _heapIndex = 0;
};

/**
 * Convenience event that runs a std::function; the idiomatic way for a
 * model to define its callbacks without one subclass per action.
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback,
                         std::string name = "event",
                         int priority = DefaultPriority)
        : Event(std::move(name), priority), callback(std::move(callback))
    {}

    void process() override { callback(); }

  private:
    std::function<void()> callback;
};

/**
 * The event queue: a total order over pending events and the simulated
 * clock. One queue drives one simulated system (no cross-queue sync).
 *
 * Internally a binary min-heap over (tick, priority, sequence) — the
 * dominant operations, schedule and pop-next, are O(log n) with no
 * per-event allocation (unlike the former std::set, which paid one node
 * allocation per insert). Deschedule is O(1) lazy deletion: the heap
 * slot is disowned in place and discarded when it surfaces; each event
 * tracks its slot, so no stale Event pointer is ever dereferenced (a
 * descheduled event may be destroyed immediately). A compaction pass
 * rebuilds the heap when disowned slots outnumber live ones.
 *
 * One-shot callbacks run in pooled nodes: each node holds its closure
 * in an inline buffer, and a node that has run goes back on this
 * queue's free list for the next one-shot. Once the pool has grown to
 * the run's peak of pending one-shots, scheduling one allocates
 * nothing.
 */
class EventQueue
{
  public:
    /**
     * Inline closure buffer of a one-shot node, in bytes. It fits the
     * largest closure the models schedule: CoreMemPath::store's
     * write-allocate continuation, which carries a whole line of store
     * payload plus its completion callback. A larger closure is a
     * compile error, never a heap fallback.
     */
    static constexpr std::size_t oneShotBytes = 144;

    EventQueue() = default;

    /**
     * Orphans every still-scheduled member event and destroys the
     * closure of every pending one-shot, without running it, so a run
     * cut short (e.g. by a simulated power failure) leaks nothing.
     */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedules @p event at absolute tick @p when (>= curTick()).
     * The event must not already be scheduled.
     */
    void schedule(Event &event, Tick when);

    /** Removes a scheduled event from the queue. */
    void deschedule(Event &event);

    /** Deschedules (if needed) and schedules at the new tick. */
    void reschedule(Event &event, Tick when);

    /**
     * Schedules the closure @p fn to run once at absolute tick @p when,
     * constructing it in place in a pooled one-shot node. Use through
     * scheduleAt() / scheduleAfter() (sim/one_shot.hh).
     */
    template <typename F>
    void scheduleOneShot(Tick when, F &&fn, int priority);

    /** Number of pending events. */
    std::size_t size() const { return heap.size() - stale; }

    bool empty() const { return size() == 0; }

    /** Processes a single event; returns false if the queue was empty. */
    bool step();

    /**
     * Runs until the queue empties or curTick() would exceed @p limit.
     * @return the tick of the last processed event.
     */
    Tick run(Tick limit = maxTick);

    /** Asks a running run() loop to return after the current event. */
    void requestStop() { stopRequested = true; }

    /** Total number of events processed since construction. */
    std::uint64_t processedCount() const { return processed; }

  private:
    class OneShot;

    /**
     * One heap slot. The ordering key is copied out of the event at
     * schedule time so that a lazily-deleted slot (ev == nullptr)
     * keeps its position without touching the — possibly destroyed —
     * event object.
     */
    struct HeapEntry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *ev;
    };

    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    /** Writes @p e into slot @p i and updates the event's back-link. */
    void
    place(std::size_t i, const HeapEntry &e)
    {
        heap[i] = e;
        if (e.ev != nullptr)
            e.ev->_heapIndex = i;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Removes the root slot (heap must be non-empty). */
    void popTop();

    /** Discards lazily-deleted slots that have surfaced at the root. */
    void purgeStale();

    /** Rebuilds the heap from its live slots only. */
    void compact();

    /** Takes a node off the free list (growing the pool if it is
     *  empty) and gives it @p priority. */
    OneShot &acquireOneShot(int priority);

    /** Runs and destroys (@p invoke) or only destroys the closure of
     *  type @p F held in @p storage. */
    template <typename F>
    static void runOneShot(void *storage, bool invoke);

    Tick _curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t processed = 0;
    bool stopRequested = false;
    std::vector<HeapEntry> heap;

    /** Number of disowned (lazily-deleted) slots still in the heap. */
    std::size_t stale = 0;

    /** Every one-shot node this queue has made, pending or free. */
    std::vector<std::unique_ptr<OneShot>> oneShots;

    /** Head of the free list threaded through idle nodes. */
    OneShot *freeOneShots = nullptr;
};

/**
 * A pooled fire-and-forget event: runs the closure in its inline
 * buffer, destroys it, and returns itself to its queue's free list.
 */
class EventQueue::OneShot final : public Event
{
  public:
    explicit OneShot(EventQueue &owner) : Event("one-shot"), owner(owner) {}

    void
    process() override
    {
        call(storage, true);
        call = nullptr;
        nextFree = owner.freeOneShots;
        owner.freeOneShots = this;
    }

  private:
    friend class EventQueue;

    EventQueue &owner;

    /** Type-erased run/destroy of the held closure; null while the
     *  node is free. */
    void (*call)(void *storage, bool invoke) = nullptr;

    OneShot *nextFree = nullptr;

    alignas(std::max_align_t) unsigned char storage[oneShotBytes];
};

inline EventQueue::OneShot &
EventQueue::acquireOneShot(int priority)
{
    if (freeOneShots == nullptr) {
        oneShots.push_back(std::make_unique<OneShot>(*this));
        freeOneShots = oneShots.back().get();
    }
    OneShot &node = *freeOneShots;
    freeOneShots = node.nextFree;
    node._priority = priority;
    return node;
}

template <typename F>
void
EventQueue::runOneShot(void *storage, bool invoke)
{
    F &fn = *std::launder(static_cast<F *>(storage));
    if (invoke)
        fn();
    fn.~F();
}

template <typename F>
void
EventQueue::scheduleOneShot(Tick when, F &&fn, int priority)
{
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= oneShotBytes,
                  "one-shot closure exceeds EventQueue::oneShotBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "one-shot closure is over-aligned");
    OneShot &node = acquireOneShot(priority);
    ::new (static_cast<void *>(node.storage)) Fn(std::forward<F>(fn));
    node.call = &runOneShot<Fn>;
    schedule(node, when);
}

} // namespace cnvm

#endif // CNVM_SIM_EVENTQ_HH
