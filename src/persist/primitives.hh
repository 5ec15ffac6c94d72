/**
 * @file
 * The selective counter-atomicity programming interface
 * (paper section 4.3).
 *
 * The paper extends Intel's persistency support with two primitives:
 *
 *  - CounterAtomic variables: any variable whose update immediately
 *    affects the recoverability of the underlying structure must be
 *    annotated; the hardware then writes the encrypted value and its
 *    counter back atomically (the ready-bit pairing in the memory
 *    controller).
 *
 *  - counter_cache_writeback(): writes the dirty counters covering a
 *    given address back to NVMM on demand, so that deferred counter
 *    updates persist before the point in the program where they start
 *    affecting recoverability (typically just before a persist
 *    barrier).
 *
 * In this trace-driven simulator, "programs" are operation streams, so
 * the primitives surface as Op constructors plus the helpers below.
 * UndoTx (txn/undo_log.hh) is the expert-crafted library the paper
 * anticipates: it emits its barriers through these primitives and
 * places the annotations, so regular code never touches them directly.
 */

#ifndef CNVM_PERSIST_PRIMITIVES_HH
#define CNVM_PERSIST_PRIMITIVES_HH

#include <set>
#include <vector>

#include "cpu/op.hh"

namespace cnvm::persist
{

/**
 * A store to a CounterAtomic variable: the value and its encryption
 * counter must persist atomically.
 */
inline Op
counterAtomicStore(Addr addr, const void *data, unsigned size)
{
    return Op::store(addr, data, size, /*ca=*/true);
}

/** counter_cache_writeback() for the counter line covering @p addr. */
inline Op
counterCacheWriteback(Addr addr)
{
    return Op::ctrwb(addr);
}

/**
 * persist_barrier (paper Figure 9): clwb for every given line, then an
 * sfence that retires only when all of them are accepted into the ADR
 * persistence domain.
 */
inline void
persistBarrier(std::vector<Op> &out, const std::vector<Addr> &lines)
{
    for (Addr a : lines)
        out.push_back(Op::clwb(a));
    out.push_back(Op::fence());
}

/**
 * The selective-counter-atomicity barrier: clwb for every line,
 * counter_cache_writeback() for each distinct covering counter line,
 * then the fence. This is the sequence the prepare and mutate stages of
 * an undo-logging transaction use (paper Figure 9, lines 9-15).
 */
inline void
selectiveBarrier(std::vector<Op> &out, const std::vector<Addr> &lines)
{
    for (Addr a : lines)
        out.push_back(Op::clwb(a));
    std::set<Addr> groups;
    for (Addr a : lines) {
        Addr group = (a / lineBytes) / countersPerLine;
        if (groups.insert(group).second)
            out.push_back(Op::ctrwb(a));
    }
    out.push_back(Op::fence());
}

} // namespace cnvm::persist

#endif // CNVM_PERSIST_PRIMITIVES_HH
