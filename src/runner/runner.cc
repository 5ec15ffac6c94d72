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
    // The calling thread joins every drain in waitSubmitted(), so a
    // pool of N jobs needs N - 1 workers; jobs == 1 spawns none and
    // runs every task inline.
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
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mtx);
            wake.wait(lock, [&]() { return stopping || !subQ.empty(); });
            if (stopping)
                return;
        }
        // Another worker (or the owner draining in waitSubmitted) may
        // have taken the task first, in which case this is a no-op and
        // we go back to sleep.
        runOneSubmitted();
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

} // namespace cnvm
