/**
 * @file
 * Fixed-size work pool over one task queue.
 *
 * Host parallelism is run-level only: the crash-point sweep's Execute
 * phase runs K independent crashed Systems (or classifies K captured
 * forks), the recovery-crash family K interrupted recoveries, and the
 * soak K independent chains. Every task is a whole run or a whole
 * recovery, and each must stay byte-identical to its serial
 * reference: sweep fingerprints and stats dumps are diffed across
 * runs. Callers therefore collect each result into its own slot, so
 * the merged output is in submission order no matter which worker
 * finished first.
 *
 * submit()/waitSubmitted() serve producers that discover work
 * incrementally: the fork-based sweep's trunk simulation emits a
 * classification task per captured crash point, and workers chew
 * through them *while the trunk is still running*. map() is the same
 * queue for a known count: it submits n index tasks and waits.
 *
 * jobs() == 1 runs every submitted task inline on the calling thread
 * with no worker threads at all: the serial reference path.
 *
 * A pool is reusable — submission cycles may follow one another any
 * number of times — but is single-owner: only one cycle may be in
 * flight at a time, driven from one thread.
 */

#ifndef CNVM_RUNNER_RUNNER_HH
#define CNVM_RUNNER_RUNNER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cnvm
{

class WorkPool
{
  public:
    /** @param jobs concurrency (including the caller); 0 picks
     *  hardwareJobs(). */
    explicit WorkPool(unsigned jobs = 0);
    ~WorkPool();

    WorkPool(const WorkPool &) = delete;
    WorkPool &operator=(const WorkPool &) = delete;

    /** Concurrency of the pool, always >= 1. */
    unsigned jobs() const { return njobs; }

    /** std::thread::hardware_concurrency(), never 0. */
    static unsigned hardwareJobs();

    /**
     * Submits task(i) for every i in [0, n) and waits for all of them,
     * collecting task(i) into slot i of the result: deterministic
     * in-order collection at any jobs() value. Every task runs; if any
     * throws, the exception of the lowest failed index is rethrown.
     */
    template <typename R>
    std::vector<R>
    map(std::size_t n, const std::function<R(std::size_t)> &task)
    {
        std::vector<R> out(n);
        for (std::size_t i = 0; i < n; ++i)
            submit([&out, &task, i]() { out[i] = task(i); });
        waitSubmitted();
        return out;
    }

    /**
     * Hands @p task to the pool and returns immediately; workers run
     * submitted tasks while the caller keeps producing more. With
     * jobs() == 1 the task runs inline right here (the serial
     * reference), with any exception deferred to waitSubmitted() —
     * identical semantics at every jobs() value. An earlier task's
     * failure does not cancel later submissions: submitted tasks are
     * independent and all of them run.
     */
    void submit(std::function<void()> task);

    /**
     * Completes a submission cycle: the caller joins in draining the
     * remaining queue, blocks until every submitted task has finished,
     * and rethrows the exception of the earliest-submitted failed task
     * (if any). Resets the cycle — the pool is reusable afterwards.
     */
    void waitSubmitted();

  private:
    unsigned njobs;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable wake; //!< workers: a task arrived / stop
    std::condition_variable idle; //!< owner: the cycle completed
    bool stopping = false;

    /** Submission-cycle state, guarded by mtx. */
    std::deque<std::pair<std::size_t, std::function<void()>>> subQ;
    std::size_t subSubmitted = 0; //!< tasks submitted this cycle
    std::size_t subDone = 0;      //!< tasks finished (ok or thrown)
    std::vector<std::pair<std::size_t, std::exception_ptr>> subErrors;

    void workerLoop();

    /** Pops and runs one submitted task; false when the queue was
     *  empty. */
    bool runOneSubmitted();
};

} // namespace cnvm

#endif // CNVM_RUNNER_RUNNER_HH
