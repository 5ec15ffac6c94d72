/**
 * @file
 * A simple in-order core executing an operation stream.
 *
 * Loads and store misses block; stores retire into the L1 in one cycle
 * on a hit; clwb and counter_cache_writeback are issued asynchronously
 * and tracked so that an sfence blocks until every outstanding persist
 * has been accepted into the ADR domain (Intel persistency semantics,
 * paper section 6.1).
 */

#ifndef CNVM_CPU_CORE_HH
#define CNVM_CPU_CORE_HH

#include <deque>
#include <functional>

#include "cpu/op.hh"
#include "mem/core_mem_path.hh"
#include "sim/clocked.hh"
#include "stats/stats.hh"

namespace cnvm
{

class Core : public Clocked
{
  public:
    Core(EventQueue &eq, ClockDomain clock, CoreMemPath &mem,
         OpSource &source, unsigned core_id,
         stats::StatRegistry *registry);

    /** Begins executing the op stream. */
    void start();

    /** True once the op stream is exhausted and all persists accepted. */
    bool finished() const { return isFinished; }

    /** Invoked once when the core finishes. */
    void setOnFinished(std::function<void()> cb) { onFinished = cb; }

    /** Stops execution immediately (power failure). */
    void halt();

    /** Tick at which the core finished (valid once finished()). */
    Tick finishedAt() const { return finishTick; }

    stats::Scalar loads;
    stats::Scalar stores;
    stats::Scalar clwbs;
    stats::Scalar ctrwbs;
    stats::Scalar fences;
    stats::Scalar computeOps;
    stats::Scalar fenceStallTicks;

  private:
    CoreMemPath &mem;
    OpSource &source;

    std::deque<Op> pending;
    unsigned outstandingPersists = 0;
    bool fenceBlocked = false;
    Tick fenceStallStart = 0;
    bool halted = false;
    bool isFinished = false;
    bool sourceDone = false;
    Tick finishTick = 0;

    /**
     * Invalidation token: callbacks captured before a halt() compare
     * against this and become no-ops afterwards.
     */
    std::uint64_t epoch = 0;

    std::function<void()> onFinished;

    void step();
    void advance(Cycles cycles);
    void retireOne() { advance(1); }
    void persistDone();
    void maybeFinish();

    /**
     * A continuation running (core->*Action)() unless the core halted
     * after it was made. At 16 bytes and trivially copyable, it fits a
     * std::function's inline storage, so handing one to the memory path
     * allocates nothing.
     */
    template <void (Core::*Action)()>
    struct Guarded
    {
        Core *core;
        std::uint64_t epoch;

        void
        operator()() const
        {
            if (!core->halted && epoch == core->epoch)
                (core->*Action)();
        }
    };

    /** Wraps @p Action so it is dropped after halt(). */
    template <void (Core::*Action)()>
    Guarded<Action> guarded() { return {this, epoch}; }
};

} // namespace cnvm

#endif // CNVM_CPU_CORE_HH
