/**
 * @file
 * Fixed-size work pool over an indexed task queue.
 *
 * The crash-point sweep's Execute phase runs K independent System
 * instances — one per planned crash point — and the bench harness runs
 * independent per-design probes. Both are embarrassingly parallel, but
 * both must stay byte-identical to their serial reference loops: sweep
 * fingerprints and stats dumps are diffed across runs. The pool
 * therefore hands out *indices* from a shared cursor and callers
 * collect each result into its own slot, so the merged output is in
 * plan order no matter which worker finished first.
 *
 * jobs() == 1 runs every index inline on the calling thread with no
 * worker threads at all: the serial reference path.
 *
 * Next to the indexed batch mode there is a pipelined mode —
 * submit()/waitSubmitted() — for producers that discover work
 * incrementally: the fork-based sweep's trunk simulation emits a
 * classification task per captured crash point, and workers chew
 * through them *while the trunk is still running*.
 *
 * A pool is reusable — forEachIndex()/map() and
 * submit()/waitSubmitted() cycles may be called any number of times —
 * but is single-owner: only one batch or submission cycle may be in
 * flight at a time, driven from one thread.
 */

#ifndef CNVM_RUNNER_RUNNER_HH
#define CNVM_RUNNER_RUNNER_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
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
     * Runs task(i) for every i in [0, n), blocking until the batch is
     * complete. The calling thread participates, so jobs() == 1 is a
     * plain serial loop. If a task throws, no *new* indices are
     * claimed (in-flight ones finish), and after the batch settles the
     * exception from the lowest-numbered failed index is rethrown.
     */
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)> &task);

    /**
     * forEachIndex() that collects task(i) into slot i of the result:
     * deterministic in-order collection at any jobs() value.
     */
    template <typename R>
    std::vector<R>
    map(std::size_t n, const std::function<R(std::size_t)> &task)
    {
        std::vector<R> out(n);
        forEachIndex(n, [&](std::size_t i) { out[i] = task(i); });
        return out;
    }

    /**
     * Pipelined mode: hands @p task to the pool and returns
     * immediately; workers run submitted tasks while the caller keeps
     * producing more. With jobs() == 1 the task runs inline right here
     * (the serial reference), with any exception deferred to
     * waitSubmitted() — identical semantics at every jobs() value.
     * Unlike batch mode, an earlier task's failure does not cancel
     * later submissions: submitted tasks are independent and all of
     * them run.
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
    /** One in-flight batch: an indexed queue [0, n) plus completion
     *  and error state, all guarded by mtx. */
    struct Batch
    {
        std::size_t n = 0;
        const std::function<void(std::size_t)> *task = nullptr;
        std::size_t next = 0; //!< next unclaimed index
        std::size_t done = 0; //!< indices finished (ok or thrown)
        unsigned active = 0;  //!< workers currently attached
        std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
    };

    unsigned njobs;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable wake; //!< workers: a batch arrived / stop
    std::condition_variable idle; //!< owner: the batch completed
    Batch *batch = nullptr;       //!< current batch (null when idle)
    std::uint64_t generation = 0; //!< bumped when a batch is posted
    bool stopping = false;

    /** Submission-cycle state (pipelined mode), guarded by mtx. */
    std::deque<std::pair<std::size_t, std::function<void()>>> subQ;
    std::size_t subSubmitted = 0; //!< tasks submitted this cycle
    std::size_t subDone = 0;      //!< tasks finished (ok or thrown)
    std::vector<std::pair<std::size_t, std::exception_ptr>> subErrors;

    void workerLoop();

    /** Claims and runs indices until the batch (or its error cutoff)
     *  is exhausted; returns with mtx unlocked. */
    void drainBatch(Batch &b);

    /** Pops and runs one submitted task; false when the queue was
     *  empty. */
    bool runOneSubmitted();
};

} // namespace cnvm

#endif // CNVM_RUNNER_RUNNER_HH
