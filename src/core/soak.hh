/**
 * @file
 * Crash-chain soak harness: the resume-after-recovery lifecycle, run
 * in anger.
 *
 * A crash sweep (crash_sweep.hh) answers "is every single crash point
 * recoverable?" — one crash, one recovery, one verdict, state
 * discarded. The soak harness answers the harder operational
 * question: does the machine stay consistent across a *chain* of
 * lifecycles, where each recovered image becomes the next run's
 * starting state and faults accumulate dose after dose?
 *
 *   cycle c:  resume(state[c-1]) → run toward a grown transaction
 *             target → planned crash (or clean shutdown when the
 *             target is reached first) → optional media/replay dose →
 *             degraded write-back recovery → oracle checks →
 *             state[c]
 *
 * Each cycle's crash point is drawn deterministically from the chain
 * seed (rotating over absolute ticks and the semantic trigger kinds a
 * probe run observed), and fault doses are derived per cycle with
 * FaultSpec::forPoint — the whole chain is a pure function of
 * (config, options), byte-identical at any worker count.
 *
 * The SoakOracle carries state *across* cycles — exactly what a
 * single-crash sweep cannot check:
 *
 *  - the committed-transaction count per core never decreases within
 *    an incarnation (a loud, counted incarnation reset is allowed
 *    only when a cycle's recovery failed even in degraded mode);
 *  - the quarantine never silently shrinks: a line may only leave
 *    quarantine when its persisted (cipher, counter, MAC) triple
 *    changed — i.e. something legitimately rewrote the media;
 *  - no cycle ever classifies SilentCorruption or SilentReplay;
 *  - the final image, after one last resume and a run to completion,
 *    passes a full integrity examination with every region
 *    consistent.
 *
 * See DESIGN.md section 4i for the re-seed equivalence argument that
 * makes resuming from a write-back-committed image sound.
 */

#ifndef CNVM_CORE_SOAK_HH
#define CNVM_CORE_SOAK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/crash_injector.hh"
#include "core/crash_oracle.hh"
#include "core/system.hh"
#include "nvm/fault_model.hh"

namespace cnvm
{

/** How to run one soak chain (or a fleet of them). */
struct SoakOptions
{
    /** Crash→recover→resume cycles per chain (the final resume-and-
     *  complete examination runs in addition, as cycle `cycles`). */
    unsigned cycles = 20;

    /** Committed-target growth per cycle: cycle c runs toward
     *  (max committed so far) + txnsPerCycle transactions per core. */
    unsigned txnsPerCycle = 12;

    /** Base fault dose, given to every second cycle (cycles 1, 3,
     *  5, ...); a dosed cycle derives a private spec with
     *  FaultSpec::forPoint(cycle). Default: clean chains. */
    FaultSpec faults;

    /** Interrupted write-back recovery attempts per cycle, run on a
     *  throwaway image copy and gated on convergence with the
     *  committing pass — crash-during-recovery idempotence, checked
     *  inside the chain. 0 disables the probe. */
    unsigned recoveryCrashes = 0;

    /** Chain planning seed (crash points, injector ordinals). */
    std::uint64_t seed = 1;

    /** Independent chains to run (each with a derived seed). */
    unsigned chains = 1;

    /** Chain-level concurrency of runSoak(); 0 asks for
     *  WorkPool::hardwareJobs(). */
    unsigned jobs = 1;
};

/** Point-in-time counters captured from one cycle's System before it
 *  is torn down. Each cycle runs on a freshly built System, so every
 *  memctl.chN.* / core / nvm stat is per-cycle (reset) by
 *  construction; the accumulate view is the sum over these
 *  snapshots. */
struct CycleStats
{
    std::uint64_t txnsIssued = 0;
    std::uint64_t nvmBytesWritten = 0;
    std::uint64_t nvmBytesRead = 0;
    std::uint64_t dataInserts = 0;
};

/** Outcome of one crash→recover→resume cycle. */
struct SoakCycle
{
    unsigned cycle = 0;

    /** The planned crash point (ignore for the final examination
     *  cycle, which always runs to completion). */
    CrashSpec spec;

    /** False when the target was reached first: the cycle ended in a
     *  clean shutdown instead of a power failure (still recovered,
     *  still checked). */
    bool crashed = false;

    /** Whether this cycle's image took a fault dose. */
    bool dosed = false;

    Tick endTick = 0;

    /** Worst per-core classification this cycle. */
    CrashClass worst = CrashClass::Consistent;

    /** Per-core committed transaction counts after recovery (zero for
     *  a core entering a fresh incarnation). */
    std::vector<std::uint64_t> committed;

    /** Lines still quarantined after this cycle's recovery. */
    std::uint64_t quarantined = 0;

    std::uint64_t detectedCorruptions = 0;
    std::uint64_t replaysDetected = 0;
    std::uint64_t repairedLines = 0;

    /** Cores entering the next cycle as fresh incarnations (recovery
     *  failed even degraded — loud, counted, never silent). */
    unsigned resets = 0;

    /** Any core completed only degraded (residual quarantine). */
    bool degraded = false;

    /** Interrupted write-back attempts the idempotence probe fired. */
    unsigned recoveryInterrupts = 0;

    CycleStats stats;

    /** True when the cycle classified silently — the outcome the soak
     *  gate forbids. */
    bool
    silent() const
    {
        return worst == CrashClass::SilentCorruption
            || worst == CrashClass::SilentReplay;
    }

    /** Deterministic fingerprint atom, e.g.
     *  "c3:tick 12345!f cls=consistent q2 r0 t36". */
    std::string describe() const;
};

/**
 * Carries the cumulative invariants across cycles. Exposed so
 * directed tests can drive it; runSoakChain() owns one per chain.
 */
class SoakOracle
{
  public:
    explicit SoakOracle(unsigned num_cores);

    /**
     * Checks one cycle's post-recovery state against the cumulative
     * invariants and updates the carried state.
     *
     * @param reports   per-core oracle reports (recovery ran in
     *        degraded write-back mode against @p img).
     * @param img       the write-back-committed recovered image.
     * @param ctl       address-space reference (any channel).
     * @param fresh_out filled with per-core fresh-incarnation flags:
     *        set for cores whose recovery failed even degraded and
     *        which must restart from scratch next cycle.
     * @return empty string when every invariant holds, else a
     *         description of the first violation.
     */
    std::string observe(const std::vector<OracleReport> &reports,
                        const PersistImage &img,
                        const MemController &ctl,
                        std::vector<std::uint8_t> &fresh_out);

    /** Total incarnation resets observed so far. */
    unsigned resets() const { return resetCount; }

    /** Lines currently tracked as quarantined. */
    std::size_t quarantinedCount() const { return quarantineHash.size(); }

  private:
    /** Per-core carried state. */
    struct CoreState
    {
        std::uint64_t committed = 0;
        unsigned incarnation = 0;
    };

    std::vector<CoreState> coreState;

    /** Quarantined line -> fnv1a hash of its persisted (cipher,
     *  counter, MAC) triple at quarantine time. A line may leave this
     *  map only when the stored triple changed. */
    std::unordered_map<Addr, std::uint64_t> quarantineHash;

    unsigned resetCount = 0;
};

/** Outcome of one chain. */
struct SoakChainResult
{
    unsigned chainIndex = 0;

    /** Every invariant held through every cycle and the final
     *  examination. */
    bool ok = false;

    /** First violation (empty when ok). */
    std::string failure;

    /** One entry per executed cycle, plus the final examination as
     *  cycle `opt.cycles` (its crashed flag is always false). */
    std::vector<SoakCycle> cycles;

    /** The transaction target the final completion run used — the
     *  uninterrupted control run a clean-chain identity test compares
     *  against must use exactly this txnTarget. */
    unsigned finalTxnTarget = 0;

    /** Per-core committed counts of the final examination (equal to
     *  finalTxnTarget for every core when ok). */
    std::vector<std::uint64_t> finalCommitted;

    /** fnv1a fold of the final examination's per-core recovered
     *  (logical-content) digests — the clean-chain identity anchor:
     *  ciphertexts and counters legitimately differ from an
     *  uninterrupted run's, the decrypted committed content must
     *  not. */
    std::uint64_t finalDigest = 0;

    /** Lines still quarantined in the final image. */
    std::uint64_t finalQuarantined = 0;

    unsigned
    silentCycles() const
    {
        unsigned n = 0;
        for (const SoakCycle &c : cycles)
            n += c.silent();
        return n;
    }

    unsigned
    totalResets() const
    {
        unsigned n = 0;
        for (const SoakCycle &c : cycles)
            n += c.resets;
        return n;
    }

    unsigned
    crashedCycles() const
    {
        unsigned n = 0;
        for (const SoakCycle &c : cycles)
            n += c.crashed;
        return n;
    }

    unsigned
    dosedCycles() const
    {
        unsigned n = 0;
        for (const SoakCycle &c : cycles)
            n += c.dosed;
        return n;
    }

    /** Deterministic digest of every cycle's spec and outcome —
     *  byte-identical for the same (config, options) at any worker
     *  count. */
    std::string fingerprint() const;
};

/** Aggregate over a fleet of chains. */
struct SoakResult
{
    std::vector<SoakChainResult> chains;

    bool
    allOk() const
    {
        if (chains.empty())
            return false;
        for (const SoakChainResult &c : chains)
            if (!c.ok)
                return false;
        return true;
    }

    /** First failing chain's failure string (empty when allOk). */
    std::string firstFailure() const;

    unsigned
    totalCycles() const
    {
        unsigned n = 0;
        for (const SoakChainResult &c : chains)
            n += static_cast<unsigned>(c.cycles.size());
        return n;
    }

    unsigned
    totalResets() const
    {
        unsigned n = 0;
        for (const SoakChainResult &c : chains)
            n += c.totalResets();
        return n;
    }

    /** Concatenation of every chain's fingerprint, in chain order. */
    std::string fingerprint() const;
};

/**
 * Whether a soak chain under this design/protection/dose combination
 * is expected to complete ok — every cycle classified loud and the
 * final examination fully consistent at target. The remaining
 * combinations are negative controls, expected to fail (and the CLI
 * gates check that they fail the right way):
 *
 *  - a fault dose without integrity MACs can corrupt silently;
 *  - a replay dose without the integrity tree slips past per-line
 *    MACs (the stale triple verifies);
 *  - Unsafe without MACs tears even a clean shutdown: its deferred
 *    counter write-backs are lost past the ADR drain, so the log
 *    header decrypts with a stale counter. With MACs armed the
 *    window repair restores the torn counter and Unsafe soaks like
 *    the rest.
 */
inline bool
soakChainExpectedOk(DesignPoint d, bool integrity_mac,
                    bool integrity_tree, bool faults, bool replays)
{
    if (faults && !integrity_mac)
        return false;
    if (replays && !integrity_tree)
        return false;
    if (!designCrashConsistent(d) && !integrity_mac)
        return false;
    return true;
}

/**
 * Runs one seed-deterministic soak chain: `opt.cycles`
 * crash→recover→resume cycles followed by a final resume, a run to
 * completion, a clean shutdown and a full integrity examination.
 * Pure function of (cfg, opt) — identical under any cfg.numChannels
 * configuration.
 */
SoakChainResult runSoakChain(const SystemConfig &cfg,
                             const SoakOptions &opt);

/**
 * Fans `opt.chains` independent chains (seeds derived from opt.seed)
 * over a pool of opt.jobs. Chains are independent and each is
 * deterministic, so the result (and its fingerprint) is byte-identical
 * at any jobs value.
 */
SoakResult runSoak(const SystemConfig &cfg, const SoakOptions &opt);

} // namespace cnvm

#endif // CNVM_CORE_SOAK_HH
