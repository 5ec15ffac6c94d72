/**
 * @file
 * Discrete-event simulation kernel.
 *
 * An EventQueue orders Event objects by (tick, priority, insertion
 * sequence) and processes them in order. Events are owned by their
 * creators (typically as member objects of model classes); the queue only
 * references them, mirroring gem5's design.
 */

#ifndef CNVM_SIM_EVENTQ_HH
#define CNVM_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <string>
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

    /**
     * Marks this event as owned by whichever queue holds it: if the
     * queue is destroyed while the event is still pending, the queue
     * deletes it. Used by fire-and-forget events (sim/one_shot.hh) so
     * that a run cut short — e.g. by a simulated power failure — does
     * not leak its in-flight callbacks.
     */
    void setSelfOwned() { _selfOwned = true; }

  private:
    friend class EventQueue;

    std::string _name;
    int _priority;
    Tick _when = 0;
    std::uint64_t _seq = 0;
    bool _selfOwned = false;
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
 */
class EventQueue
{
  public:
    EventQueue() = default;
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

    Tick _curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t processed = 0;
    bool stopRequested = false;
    std::vector<HeapEntry> heap;

    /** Number of disowned (lazily-deleted) slots still in the heap. */
    std::size_t stale = 0;
};

} // namespace cnvm

#endif // CNVM_SIM_EVENTQ_HH
