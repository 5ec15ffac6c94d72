#include "runner/runner.hh"

#include <algorithm>

namespace cnvm
{

unsigned
WorkPool::hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

WorkPool::WorkPool(unsigned jobs)
    : njobs(jobs == 0 ? hardwareJobs() : jobs)
{
    // The calling thread participates in every batch, so a pool of N
    // jobs needs N - 1 workers; jobs == 1 spawns none and stays a
    // purely serial inline loop.
    workers.reserve(njobs - 1);
    for (unsigned i = 1; i < njobs; ++i)
        workers.emplace_back([this]() { workerLoop(); });
}

WorkPool::~WorkPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    wake.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
WorkPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        Batch *b = nullptr;
        {
            std::unique_lock<std::mutex> lock(mtx);
            wake.wait(lock, [&]() {
                return stopping
                    || (batch != nullptr && generation != seen)
                    || !subQ.empty();
            });
            if (stopping)
                return;
            if (batch != nullptr && generation != seen) {
                seen = generation;
                b = batch;
                // Attach before unlocking: the owner must not retire
                // the batch (a stack object of forEachIndex) while any
                // worker still holds a pointer to it.
                ++b->active;
            }
        }
        if (b != nullptr) {
            drainBatch(*b);
            std::lock_guard<std::mutex> lock(mtx);
            if (--b->active == 0)
                idle.notify_all();
        } else {
            // Woken for a submitted task; another worker may have
            // beaten us to it, in which case this is a no-op and we
            // go back to sleep.
            runOneSubmitted();
        }
    }
}

bool
WorkPool::runOneSubmitted()
{
    std::pair<std::size_t, std::function<void()>> item;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (subQ.empty())
            return false;
        item = std::move(subQ.front());
        subQ.pop_front();
    }
    std::exception_ptr err;
    try {
        item.second();
    } catch (...) {
        err = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (err)
            subErrors.emplace_back(item.first, err);
        // subSubmitted may still grow (the owner keeps producing);
        // waitSubmitted() re-checks the predicate on every wakeup.
        if (++subDone == subSubmitted)
            idle.notify_all();
    }
    return true;
}

void
WorkPool::submit(std::function<void()> task)
{
    if (njobs == 1) {
        // Serial reference: run inline, defer any error so that the
        // caller sees identical semantics at every jobs() value.
        std::size_t index = subSubmitted++;
        try {
            task();
        } catch (...) {
            subErrors.emplace_back(index, std::current_exception());
        }
        ++subDone;
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mtx);
        subQ.emplace_back(subSubmitted++, std::move(task));
    }
    wake.notify_one();
}

void
WorkPool::waitSubmitted()
{
    // The owner joins the drain: with every worker busy on earlier
    // tasks, the queue tail would otherwise wait for a free worker.
    while (runOneSubmitted()) {
    }

    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
    {
        std::unique_lock<std::mutex> lock(mtx);
        idle.wait(lock, [&]() { return subDone == subSubmitted; });
        errors.swap(subErrors);
        subSubmitted = 0;
        subDone = 0;
    }

    if (!errors.empty()) {
        auto lowest = std::min_element(
            errors.begin(), errors.end(),
            [](const auto &a, const auto &c) { return a.first < c.first; });
        std::rethrow_exception(lowest->second);
    }
}

void
WorkPool::drainBatch(Batch &b)
{
    for (;;) {
        std::size_t i;
        {
            std::lock_guard<std::mutex> lock(mtx);
            // A thrown task stops the claim cursor: the batch settles
            // with in-flight work only, and the error is rethrown by
            // the owner once everyone is done.
            if (!b.errors.empty() || b.next >= b.n)
                return;
            i = b.next++;
        }
        std::exception_ptr err;
        try {
            (*b.task)(i);
        } catch (...) {
            err = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (err)
                b.errors.emplace_back(i, err);
            // A transient done == next mid-batch notifies the owner
            // while it is still claiming; the extra wakeup is benign
            // because the owner re-checks the predicate.
            if (++b.done == b.next)
                idle.notify_all();
        }
    }
}

void
WorkPool::forEachIndex(std::size_t n,
                       const std::function<void(std::size_t)> &task)
{
    if (n == 0)
        return;

    Batch b;
    b.n = n;
    b.task = &task;

    if (njobs == 1 || n == 1) {
        // Serial reference path: run in index order on this thread.
        // The first throw propagates directly — it is necessarily the
        // lowest failed index, matching the parallel semantics.
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mtx);
        batch = &b;
        ++generation;
    }
    wake.notify_all();

    // The owner claims indices too, then waits for stragglers — both
    // for every claimed index to finish and for every attached worker
    // to drop its pointer to this stack frame's batch.
    drainBatch(b);
    {
        std::unique_lock<std::mutex> lock(mtx);
        idle.wait(lock,
                  [&]() { return b.done == b.next && b.active == 0; });
        batch = nullptr;
    }

    if (!b.errors.empty()) {
        auto lowest = std::min_element(
            b.errors.begin(), b.errors.end(),
            [](const auto &a, const auto &c) { return a.first < c.first; });
        std::rethrow_exception(lowest->second);
    }
}

} // namespace cnvm
