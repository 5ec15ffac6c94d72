/**
 * @file
 * Discrete-event simulation kernel.
 *
 * An EventQueue orders pending events by (tick, priority, insertion
 * sequence) and runs them in order. Every event is a fire-and-forget
 * closure, scheduled with scheduleAt() or scheduleAfter() and run in a
 * node the queue itself owns.
 */

#ifndef CNVM_SIM_EVENTQ_HH
#define CNVM_SIM_EVENTQ_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cnvm
{

/**
 * The event queue: a total order over pending events and the simulated
 * clock. One queue drives one simulated system (no cross-queue sync).
 *
 * Internally a binary min-heap over (tick, priority, sequence): the
 * dominant operations, schedule and pop-next, are O(log n) with no
 * per-event allocation.
 *
 * Each event's closure lives in a pooled node's inline buffer, and a
 * node that has run goes back on this queue's free list for the next
 * event. Once the pool has grown to the run's peak of pending events,
 * scheduling one allocates nothing.
 */
class EventQueue
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

    /**
     * Inline closure buffer of a node, in bytes. It fits the largest
     * closure the models schedule: CoreMemPath::store's write-allocate
     * continuation, which carries a whole line of store payload plus
     * its completion callback. A larger closure is a compile error,
     * never a heap fallback.
     */
    static constexpr std::size_t oneShotBytes = 144;

    EventQueue() = default;

    /**
     * Destroys the closure of every pending event, without running it,
     * so a run cut short (e.g. by a simulated power failure) leaks
     * nothing.
     */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedules @p fn to run once at absolute tick @p when
     * (>= curTick()). The closure is built in place in a node pooled by
     * @p eq, so a callback chain allocates nothing per step.
     */
    template <typename F>
    friend void
    scheduleAt(EventQueue &eq, Tick when, F &&fn,
               int priority = DefaultPriority)
    {
        eq.schedule(when, std::forward<F>(fn), priority);
    }

    /** Schedules @p fn @p delta ticks from now. */
    template <typename F>
    friend void
    scheduleAfter(EventQueue &eq, Tick delta, F &&fn,
                  int priority = DefaultPriority)
    {
        eq.schedule(eq.curTick() + delta, std::forward<F>(fn), priority);
    }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    bool empty() const { return heap.empty(); }

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
    /** A pooled event: a pending closure, or a free-list link. */
    struct Node
    {
        /** Type-erased run/destroy of the held closure. */
        void (*call)(void *storage, bool invoke) = nullptr;

        Node *nextFree = nullptr;

        alignas(std::max_align_t) unsigned char storage[oneShotBytes];
    };

    /** One heap slot: the ordering key and the node it orders. */
    struct HeapEntry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Node *node;
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

    /** Constructs @p fn in a pooled node and pushes it on the heap. */
    template <typename F>
    void schedule(Tick when, F &&fn, int priority);

    /** Pushes @p node on the heap at (@p when, @p priority). */
    void push(Tick when, int priority, Node &node);

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Takes a node off the free list, growing the pool if it is
     *  empty. */
    Node &acquireNode();

    /** Runs and destroys (@p invoke) or only destroys the closure of
     *  type @p F held in @p storage. */
    template <typename F>
    static void runClosure(void *storage, bool invoke);

    Tick _curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t processed = 0;
    bool stopRequested = false;
    std::vector<HeapEntry> heap;

    /** Every node this queue has made, pending or free. */
    std::vector<std::unique_ptr<Node>> nodes;

    /** Head of the free list threaded through idle nodes. */
    Node *freeNodes = nullptr;
};

inline EventQueue::Node &
EventQueue::acquireNode()
{
    if (freeNodes == nullptr) {
        nodes.push_back(std::make_unique<Node>());
        freeNodes = nodes.back().get();
    }
    Node &node = *freeNodes;
    freeNodes = node.nextFree;
    return node;
}

template <typename F>
void
EventQueue::runClosure(void *storage, bool invoke)
{
    F &fn = *std::launder(static_cast<F *>(storage));
    if (invoke)
        fn();
    fn.~F();
}

template <typename F>
void
EventQueue::schedule(Tick when, F &&fn, int priority)
{
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= oneShotBytes,
                  "event closure exceeds EventQueue::oneShotBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "event closure is over-aligned");
    Node &node = acquireNode();
    ::new (static_cast<void *>(node.storage)) Fn(std::forward<F>(fn));
    node.call = &runClosure<Fn>;
    push(when, priority, node);
}

} // namespace cnvm

#endif // CNVM_SIM_EVENTQ_HH
