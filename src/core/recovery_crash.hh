/**
 * @file
 * Crash-during-recovery: interrupt recovery itself at planned points
 * and prove it is idempotent.
 *
 * The paper treats recovery as the crash-consistency story, and Osiris
 * (PAPERS.md) makes the sharper point that counter recovery must
 * tolerate being interrupted and re-run: a machine that lost power
 * once can lose power again while recovery is still writing the image
 * back. The scenario family here makes that a first-class, sweepable
 * property:
 *
 *  - RecoveryEngine::recover() in write-back mode
 *    (RecoveryOptions::commitTo) persists every restoration it makes,
 *    and announces each step to a RecoveryCrashInjector;
 *
 *  - the injector interrupts the attempt at a planned step (the Nth
 *    pre-scan line, the Nth rollback descriptor, before/after the
 *    valid-flag invalidation) by throwing RecoveryInterrupted — the
 *    recovery-side model of a second power failure;
 *
 *  - runRecoveryCrashSweep() captures crashed images (fork capture,
 *    optionally fault-dosed), recovers each once uninterrupted for
 *    reference, then for every planned interruption point runs two
 *    interrupted attempts on a copy of the image followed by one
 *    complete attempt, and compares the *convergent* fields of the
 *    final RecoveryReport against the reference.
 *
 * The idempotence invariant: any number of interrupted write-back
 * attempts followed by one complete attempt converges to the same
 * recovered digest and the same consistency verdict
 * (consistent/reason/committedTxns/unrecoverableLines) as a single
 * uninterrupted recovery. Fields that measure *work done by this
 * attempt* (rolledBack, detectedCorruptions, repairedLines) are
 * legitimately smaller after a partial attempt already persisted some
 * restorations, and are excluded — see RecoveryConvergence.
 */

#ifndef CNVM_CORE_RECOVERY_CRASH_HH
#define CNVM_CORE_RECOVERY_CRASH_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/recovery.hh"
#include "core/system.hh"
#include "nvm/fault_model.hh"

namespace cnvm
{

/** Steps of a write-back recovery attempt an injector can observe. */
enum class RecoveryEvent
{
    PreScanLine,      //!< one region line integrity-verified (merged)
    RollbackWrite,    //!< one undo-log descriptor rolled back
    BeforeValidClear, //!< rollback done, valid flag still set
    AfterValidClear,  //!< log invalidation persisted
    TreeRebuildLeaf,  //!< one counter line's tree leaves reconstructed
};

constexpr unsigned numRecoveryEvents = 5;

const char *recoveryEventName(RecoveryEvent ev);

/** One planned interruption: die at the Nth occurrence of a step. */
struct RecoveryCrashSpec
{
    RecoveryEvent kind = RecoveryEvent::PreScanLine;

    /** 1-based occurrence that fires; 0 never fires (pure observer). */
    std::uint64_t nth = 0;

    /** "prescan#12", "rollback#3", "valid-clear#1", ... */
    std::string describe() const;
};

/**
 * Thrown by RecoveryCrashInjector::onEvent() when the armed spec
 * fires: the recovery process dies here. Deliberately not derived
 * from std::exception — nothing may handle it by accident.
 */
struct RecoveryInterrupted
{
    RecoveryCrashSpec spec;
};

/**
 * Counts recovery steps and interrupts the attempt when the armed
 * spec's occurrence is reached. A default-constructed injector never
 * fires and doubles as the observer that teaches the planner which
 * steps an image's recovery actually reaches (and how often).
 */
class RecoveryCrashInjector
{
  public:
    /** Pure observer: counts events, never fires. */
    RecoveryCrashInjector() = default;

    explicit RecoveryCrashInjector(const RecoveryCrashSpec &spec)
        : spec(spec)
    {}

    /** Called by the recovery pipeline at each step. Throws
     *  RecoveryInterrupted when the armed occurrence is reached. */
    void
    onEvent(RecoveryEvent ev)
    {
        std::uint64_t n = ++counts[static_cast<unsigned>(ev)];
        if (spec.nth != 0 && ev == spec.kind && n == spec.nth) {
            hasFired = true;
            throw RecoveryInterrupted{spec};
        }
    }

    std::uint64_t countOf(RecoveryEvent ev) const
    { return counts[static_cast<unsigned>(ev)]; }

    /** Whether the armed spec interrupted an attempt. */
    bool fired() const { return hasFired; }

  private:
    RecoveryCrashSpec spec;
    std::array<std::uint64_t, numRecoveryEvents> counts{};
    bool hasFired = false;
};

/** How to run a crash-during-recovery sweep. */
struct RecoveryCrashOptions
{
    /** Interruption points, distributed over the captured images. */
    unsigned points = 40;

    /** Crashed images to capture (fork mode, one trunk run). */
    unsigned images = 8;

    /** Execute concurrency: images and points fan out over a pool of
     *  this size, merged in plan order, so the outcome is identical at
     *  any value; 0 asks for WorkPool::hardwareJobs(). */
    unsigned jobs = 1;

    /** Media-fault dose for the captured images (per-point seeds, as
     *  in SweepOptions::faults). Default: clean crashes. */
    FaultSpec faults;
};

/** Convergent fields of one region's recovery (see file header). */
struct RecoveryConvergence
{
    bool consistent = false;
    RecoveryFailure reason = RecoveryFailure::None;
    std::uint64_t committedTxns = 0;
    std::uint64_t unrecoverableLines = 0;
    bool digestComputed = false;
    std::uint64_t recoveredDigest = 0;

    bool operator==(const RecoveryConvergence &) const = default;

    /** "ok@5/d123..." / "quarantined-lines/u2" — fingerprint atom. */
    std::string describe() const;
};

RecoveryConvergence convergenceOf(const RecoveryReport &report);

/** Outcome of one interruption point. */
struct RecoveryCrashPoint
{
    /** Which captured image this point interrupted. */
    std::size_t imageIndex = 0;

    RecoveryCrashSpec spec;

    /** Whether any attempt was actually interrupted (an unreachable
     *  occurrence means every attempt completed — still checked). */
    bool fired = false;

    /** Final attempt's per-region convergent fields. */
    std::vector<RecoveryConvergence> converged;

    /** True when `converged` differs from the image's reference. */
    bool divergent = false;

    /** What diverged (empty when convergent). */
    std::string detail;
};

/** Aggregate crash-during-recovery sweep outcome. */
struct RecoveryCrashResult
{
    /** Captured (reached) crashed images. */
    unsigned images = 0;

    /** Per-image reference convergence (plan order). */
    std::vector<std::vector<RecoveryConvergence>> reference;

    std::vector<RecoveryCrashPoint> points;

    unsigned
    divergentPoints() const
    {
        unsigned n = 0;
        for (const RecoveryCrashPoint &p : points)
            n += p.divergent;
        return n;
    }

    unsigned
    firedPoints() const
    {
        unsigned n = 0;
        for (const RecoveryCrashPoint &p : points)
            n += p.fired;
        return n;
    }

    /** Deterministic one-line digest of every point's spec/outcome. */
    std::string fingerprint() const;
};

/**
 * Captures @p opt.images crashed images of @p cfg (one fork-capture
 * trunk run), recovers each once for reference, then executes
 * @p opt.points interruption points: interrupted write-back attempts
 * followed by a completing one, gated on convergence. Deterministic
 * for fixed seeds at any opt.jobs value.
 */
RecoveryCrashResult runRecoveryCrashSweep(const SystemConfig &cfg,
                                          const RecoveryCrashOptions &opt);

} // namespace cnvm

#endif // CNVM_CORE_RECOVERY_CRASH_HH
