/**
 * @file
 * Persistent-state forks: everything a crash point needs, captured
 * from a still-running trunk simulation.
 *
 * The paper's recovery model (section 2.2.2) is the enabling insight:
 * a power failure discards all volatile state, so recovery — and hence
 * crash classification — depends only on what had persisted by the
 * failure instant. A PersistFork is exactly that closure: the device's
 * persisted image with the controller's ADR drain already overlaid,
 * the controller-state snapshot for reporting, and the per-core
 * committed-transaction digests as of the capture tick. Classifying a
 * fork off-trunk (core/crash_sweep.hh, classifyFork()) is therefore
 * equivalent to crashing a dedicated replay run at the same point,
 * without paying for the replay.
 */

#ifndef CNVM_CORE_PERSIST_FORK_HH
#define CNVM_CORE_PERSIST_FORK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "nvm/persist_image.hh"

namespace cnvm
{

/**
 * Controller state at the instant the power failed, captured before
 * the crash drops it (or, for a fork, at the capture instant while
 * the trunk keeps running). Lets tests assert that a semantic trigger
 * really crashed in the intended state (non-empty pipeline, occupied
 * landing queue, ...), and feeds the sweep report.
 */
struct CrashSnapshot
{
    bool valid = false; //!< a crash actually happened
    Tick tick = 0;
    unsigned dataQueue = 0;
    unsigned ctrQueue = 0;
    std::size_t landing = 0;
    unsigned pipeline = 0;
    unsigned inflight = 0;
    unsigned outstandingReads = 0;
};

/**
 * One captured crash point, self-contained: its image shares pages
 * with the trunk's, and whichever side writes a shared page copies it
 * first, so mutating the trunk after capture (it keeps simulating)
 * cannot change a fork's classification, and forks from one trunk may
 * be classified concurrently on worker threads.
 */
struct PersistFork
{
    /** Index of the fired CrashSpec in the sweep plan. */
    std::size_t planIndex = 0;

    /** Controller state at the capture instant. */
    CrashSnapshot snapshot;

    /**
     * Persisted NVM state at the capture instant with the ADR drain of
     * the ready queue entries applied — what recovery would find.
     */
    PersistImage image;

    /**
     * Per-core committed-transaction digests as of the capture tick
     * (digests()[k] is the digest after k commits). Copied because the
     * trunk keeps committing: the committed-prefix search must not see
     * transactions from the fork's future.
     */
    std::vector<std::vector<std::uint64_t>> coreDigests;
};

} // namespace cnvm

#endif // CNVM_CORE_PERSIST_FORK_HH
