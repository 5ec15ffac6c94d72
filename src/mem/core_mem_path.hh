/**
 * @file
 * Per-core memory path: a private L1 + L2 pair in front of the shared
 * memory controller, with the timing orchestration for loads, stores,
 * clwb-style writebacks and counter_cache_writeback() requests.
 *
 * The evaluated workloads operate on disjoint per-core data (paper
 * section 6.3.2: "each thread performs the same operations on different
 * cores"), so no coherence protocol is modelled; contention is captured
 * where the paper's effects live — in the shared memory controller and
 * the NVM device.
 */

#ifndef CNVM_MEM_CORE_MEM_PATH_HH
#define CNVM_MEM_CORE_MEM_PATH_HH

#include <deque>
#include <functional>
#include <string>

#include "mem/cache.hh"
#include "mem/live_view.hh"
#include "mem/mem_backend.hh"
#include "sim/clocked.hh"
#include "sim/eventq.hh"
#include "stats/stats.hh"

namespace cnvm
{

/** Geometry and latency of the private cache levels. */
struct CachePathConfig
{
    std::uint64_t l1Bytes = 64 * 1024;
    unsigned l1Assoc = 8;
    Cycles l1Cycles = 4;

    std::uint64_t l2Bytes = 2 * 1024 * 1024;
    unsigned l2Assoc = 8;
    Cycles l2Cycles = 20;
};

/**
 * The L1/L2 pair of one core. Inclusive hierarchy (L1 subset of L2);
 * L2 evictions back-invalidate L1, merging the L1 line's dirty state
 * first. The caches hold tags and state only: a store updates the
 * live view at once, and a writeback snapshots the line from that view
 * as it leaves the hierarchy.
 */
class CoreMemPath : public Clocked
{
  public:
    /** @param live this core's live view; it must outlive the path. */
    CoreMemPath(EventQueue &eq, ClockDomain cpu_clock,
                MemBackend &backend, LiveView &live,
                const CachePathConfig &cfg, unsigned core_id,
                stats::StatRegistry *registry);

    /** Line-granularity load; @p done fires when data is usable. */
    void load(Addr addr, std::function<void()> done);

    /**
     * Store of @p size bytes at @p addr (must not cross a line).
     * Write-allocate: a miss fetches the line first.
     *
     * @param counter_atomic the store carries the CounterAtomic
     *        annotation; the line's eventual writeback must pair data
     *        and counter persistence.
     */
    void store(Addr addr, unsigned size, const std::uint8_t *bytes,
               bool counter_atomic, std::function<void()> done);

    /**
     * clwb: writes the line back without invalidating; @p done fires
     * when the write is accepted into the persistence domain (or at
     * once if the line is clean everywhere).
     */
    void clwb(Addr addr, std::function<void()> done);

    /**
     * counter_cache_writeback() for the counter line covering
     * @p addr; @p done fires on ADR acceptance.
     */
    void ctrwb(Addr addr, std::function<void()> done);

    /** Models power failure: every volatile line is lost. */
    void dropAll();

  private:
    MemBackend &backend;
    LiveView &live;
    Cache l1;
    Cache l2;
    CachePathConfig cfg;

    /** Deferred writes waiting for controller space, retried in order. */
    std::deque<std::function<bool()>> stalled;
    bool retryRegistered = false;

    stats::Scalar l1Hits;
    stats::Scalar l1Misses;
    stats::Scalar l2Hits;
    stats::Scalar l2Misses;
    stats::Scalar writebacks;
    stats::Scalar evictions;
    stats::Histogram loadTicks;

    /** Runs @p fn after @p cycles core cycles. */
    template <typename F>
    void
    after(Cycles cycles, F &&fn)
    {
        scheduleAfter(eventq, cyclesToTicks(cycles), std::forward<F>(fn));
    }

    /** Samples a load's latency from @p start, then runs @p done. */
    void finishLoad(Tick start, const std::function<void()> &done);

    /**
     * Brings @p addr into L2 and L1 as a clean line, handling the
     * eviction chain. Either level may already hold the line.
     */
    void fillBoth(Addr addr);

    /** Installs into L1 only, handling an L1 victim (merge into L2). */
    void fillL1(Addr addr);

    /**
     * Sends a dirty line to the controller with its plaintext read from
     * the live view now, queueing behind earlier stalled writes if the
     * controller is full; @p accepted (optional) runs once the write
     * has been handed over.
     */
    void writebackToMem(Addr addr, bool ca,
                        std::function<void()> accepted);

    /** Attempts the stalled queue front-to-back; re-arms the retry. */
    void drainStalled();

    /** Pushes one deferred attempt and arms the controller retry. */
    void pushStalled(std::function<bool()> attempt);

    /** Reads @p addr from memory into both levels, then runs
     *  @p done. */
    template <typename F>
    void missToMemory(Addr addr, F &&done);
};

} // namespace cnvm

#endif // CNVM_MEM_CORE_MEM_PATH_HH
