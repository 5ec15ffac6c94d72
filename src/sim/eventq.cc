#include "sim/eventq.hh"

#include "common/logging.hh"

namespace cnvm
{

Event::Event(std::string name, int priority)
    : _name(std::move(name)), _priority(priority)
{
}

Event::~Event()
{
    if (queue != nullptr)
        queue->deschedule(*this);
}

EventQueue::~EventQueue()
{
    // Orphan every still-scheduled event so its destructor does not
    // touch a dead queue — the pooled nodes' own included, which the
    // pool deletes next.
    for (const HeapEntry &entry : heap) {
        if (entry.ev != nullptr)
            entry.ev->queue = nullptr;
    }
    for (const std::unique_ptr<OneShot> &node : oneShots) {
        if (node->call != nullptr)
            node->call(node->storage, false);
    }
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapEntry e = heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!before(e, heap[parent]))
            break;
        place(i, heap[parent]);
        i = parent;
    }
    place(i, e);
}

void
EventQueue::siftDown(std::size_t i)
{
    HeapEntry e = heap[i];
    const std::size_t n = heap.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap[child + 1], heap[child]))
            ++child;
        if (!before(heap[child], e))
            break;
        place(i, heap[child]);
        i = child;
    }
    place(i, e);
}

void
EventQueue::popTop()
{
    if (heap.size() > 1) {
        place(0, heap.back());
        heap.pop_back();
        siftDown(0);
    } else {
        heap.pop_back();
    }
}

void
EventQueue::purgeStale()
{
    while (!heap.empty() && heap.front().ev == nullptr) {
        popTop();
        --stale;
    }
}

void
EventQueue::compact()
{
    std::size_t live = 0;
    for (std::size_t i = 0; i < heap.size(); ++i) {
        if (heap[i].ev != nullptr)
            heap[live++] = heap[i];
    }
    heap.resize(live);
    stale = 0;
    // Floyd heapify; place() restores every event's back-link.
    for (std::size_t i = live; i-- > 0;)
        siftDown(i);
}

void
EventQueue::schedule(Event &event, Tick when)
{
    cnvm_assert(event.queue == nullptr);
    if (when < _curTick) {
        cnvm_panic("scheduling event '%s' in the past (%llu < %llu)",
                   event.name().c_str(),
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(_curTick));
    }
    event._when = when;
    event._seq = nextSeq++;
    event.queue = this;
    heap.push_back(HeapEntry{when, event._priority, event._seq, &event});
    event._heapIndex = heap.size() - 1;
    siftUp(heap.size() - 1);
}

void
EventQueue::deschedule(Event &event)
{
    cnvm_assert(event.queue == this);
    cnvm_assert(event._heapIndex < heap.size()
                && heap[event._heapIndex].ev == &event);
    // Lazy deletion: disown the slot in place — its ordering key stays
    // valid, and the slot is discarded when it surfaces at the root.
    heap[event._heapIndex].ev = nullptr;
    ++stale;
    event.queue = nullptr;
    // Keep memory bounded under deschedule-heavy load.
    if (stale > 64 && stale * 2 > heap.size())
        compact();
}

void
EventQueue::reschedule(Event &event, Tick when)
{
    if (event.queue != nullptr)
        deschedule(event);
    schedule(event, when);
}

bool
EventQueue::step()
{
    purgeStale();
    if (heap.empty())
        return false;

    Event *event = heap.front().ev;
    popTop();
    event->queue = nullptr;

    _curTick = event->_when;
    ++processed;
    event->process();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    stopRequested = false;
    for (;;) {
        purgeStale();
        if (heap.empty() || stopRequested)
            break;
        if (heap.front().when > limit)
            break;
        step();
    }
    return _curTick;
}

} // namespace cnvm
