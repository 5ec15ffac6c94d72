#include "sim/eventq.hh"

#include "common/logging.hh"

namespace cnvm
{

EventQueue::~EventQueue()
{
    // Every pending node sits in the heap exactly once; free nodes hold
    // no closure.
    for (const HeapEntry &entry : heap)
        entry.node->call(entry.node->storage, false);
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapEntry e = heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!before(e, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
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
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = e;
}

void
EventQueue::push(Tick when, int priority, Node &node)
{
    if (when < _curTick) {
        cnvm_panic("scheduling an event in the past (%llu < %llu)",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(_curTick));
    }
    heap.push_back(HeapEntry{when, priority, nextSeq++, &node});
    siftUp(heap.size() - 1);
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;

    const HeapEntry top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0);

    _curTick = top.when;
    ++processed;
    // The node goes back on the free list only after its closure has
    // run and been destroyed: an event the closure schedules must not
    // be built over the closure still running.
    Node &node = *top.node;
    node.call(node.storage, true);
    node.nextFree = freeNodes;
    freeNodes = &node;
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    stopRequested = false;
    while (!heap.empty() && !stopRequested && heap.front().when <= limit)
        step();
    return _curTick;
}

} // namespace cnvm
