/**
 * @file
 * Post-crash recoverability oracle.
 *
 * After a simulated power failure, the oracle does two independent
 * things per workload region and combines them into a classification:
 *
 *  1. Recovery: runs the real recovery path (decrypt with the persisted
 *     counters, roll back the undo log, validate invariants, match a
 *     committed digest prefix) — what actual recovery software can do.
 *
 *  2. Census: compares, line by line, the counter each persisted
 *     ciphertext was encrypted with against the persisted counter store
 *     — ground truth only the simulator has. A divergence means the
 *     line decrypts to garbage (paper equation 4); the direction tells
 *     which half of the pair the failure tore off.
 *
 * A consistent recovery with mismatched lines is normal for SCA: torn
 * mutate-stage lines are exactly what the undo log rolls back (paper
 * section 4.2). An inconsistent recovery is then classified by what the
 * census shows, which is how the sweep separates the Unsafe design's
 * counter-atomicity violations from any plain software bug.
 */

#ifndef CNVM_CORE_CRASH_ORACLE_HH
#define CNVM_CORE_CRASH_ORACLE_HH

#include "core/recovery.hh"
#include "memctl/mem_controller.hh"
#include "nvm/persist_image.hh"
#include "workloads/workload.hh"

namespace cnvm
{

/** Classification of one post-crash region. */
enum class CrashClass
{
    /** Recovered to a committed prefix of the transaction history. */
    Consistent,

    /** Inconsistent; persisted counters ran ahead of their data (the
     *  data half of a pair was torn off — paper Figure 4). */
    TornData,

    /** Inconsistent; persisted data ran ahead of its counters (the
     *  deferred counter update was lost — the Unsafe failure mode). */
    TornCounter,

    /** Inconsistent with counter/data divergence in both directions. */
    CounterDataMismatch,

    /** Inconsistent with a clean counter census (software-level torn
     *  state the transaction mechanism failed to mask). */
    Inconsistent,

    /** Inconsistent, but recovery *saw* the corruption: integrity
     *  metadata rejected at least one line (repaired, quarantined, or
     *  degraded — never trusted). The acceptable outcome of a media
     *  fault. */
    DetectedCorruption,

    /** Inconsistent under injected media faults with recovery none the
     *  wiser — no MAC rejection, garbage consumed as if it were data.
     *  The failure mode integrity metadata exists to eliminate: with
     *  integrityMac on, no sweep point may ever land here. */
    SilentCorruption,

    /** Recovery *caught* at least one replayed line: its MAC verified
     *  but the integrity tree rejected the stored counter. The
     *  acceptable outcome of a replay dose (when the log could not
     *  also restore the line). */
    ReplayDetected,

    /** A replayed line landed in the region and recovery never
     *  noticed — the stale-but-valid triple passed every check it had
     *  and was consumed as current state (whether or not the final
     *  verdict came back consistent: an old committed prefix is the
     *  attack succeeding). Per-line MACs alone always land here; with
     *  integrityTree on, no sweep point may ever. */
    SilentReplay,
};

const char *crashClassName(CrashClass cls);

/** True for every inconsistent class caused by counter/data skew. */
inline bool
isCounterDataMismatch(CrashClass cls)
{
    return cls == CrashClass::TornData || cls == CrashClass::TornCounter
        || cls == CrashClass::CounterDataMismatch;
}

/** Everything the oracle learned about one region. */
struct OracleReport
{
    RecoveryReport recovery;
    CrashClass cls = CrashClass::Consistent;

    /** Census findings. */
    std::uint64_t tornDataLines = 0;    //!< persisted counter > cipher
    std::uint64_t tornCounterLines = 0; //!< persisted counter < cipher

    /** Region lines an injected media fault corrupted (simulator
     *  ground truth — what separates Silent from plain Inconsistent). */
    std::uint64_t faultedLines = 0;

    /** Region lines a replay dose rolled back whole (simulator ground
     *  truth — what separates SilentReplay from everything else). */
    std::uint64_t replayedLines = 0;

    std::uint64_t mismatchedLines() const
    { return tornDataLines + tornCounterLines; }
};

/**
 * Classifies crashed images for workloads of one system. Like the
 * recovery engine it reads one PersistImage — the live device's
 * persisted state after an in-place crash, or a PersistFork's captured
 * image — and reads only immutable configuration from the controller.
 */
class CrashOracle
{
  public:
    CrashOracle(const PersistImage &src, const MemController &ctl);

    /**
     * Recovers and classifies one workload's region.
     *
     * @param digests optional committed-digest log override for the
     *        recovery step (see RecoveryEngine::recover).
     * @param ropt recovery options — write-back target, injector,
     *        degraded mode (see RecoveryOptions).
     */
    OracleReport examine(const Workload &workload,
                         const std::vector<std::uint64_t> *digests
                             = nullptr,
                         const RecoveryOptions &ropt = {}) const;

  private:
    const PersistImage &src;
    const MemController &ctl;
};

} // namespace cnvm

#endif // CNVM_CORE_CRASH_ORACLE_HH
