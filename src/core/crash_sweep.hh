/**
 * @file
 * Deterministic crash-point sweep.
 *
 * One sweep answers "does this design recover from a power failure at
 * *any* controller state?" for one configuration:
 *
 *  1. Probe: run the configuration once to completion, counting every
 *     semantic controller event and noting the end tick.
 *
 *  2. Plan: distribute K crash points round-robin over the reachable
 *     trigger kinds — absolute ticks spread across the probed runtime,
 *     plus every semantic kind the probe observed at least once, with
 *     ordinals spread across its observed total. Semantic points pin
 *     the crash to states (mid-pipeline, mid-pairing, mid-eviction)
 *     that tick-fraction sampling hits only by luck.
 *
 *  3. Execute, in one of two modes (SweepOptions::mode):
 *
 *     - Replay (the reference): one fresh System per point, same seed,
 *       crash armed at that point, then recover and classify with the
 *       CrashOracle. Each point owns its System, CrashInjector and
 *       CrashOracle, so points are independent and the Execute phase
 *       fans out over a WorkPool (SweepOptions::jobs); results are
 *       merged in plan order, so the outcome is byte-identical to the
 *       serial loop at any job count.
 *
 *     - Fork: ONE trunk System runs with every planned spec armed at
 *       once; each firing captures a PersistFork (persisted image with
 *       the ADR drain overlaid, controller snapshot, frozen digest
 *       logs) and the trunk keeps going. Forks are classified
 *       off-trunk by classifyFork(), pipelined over the WorkPool
 *       while the trunk is still producing. K points cost one
 *       simulation plus K recoveries instead of K simulations — yet
 *       because recovery depends only on persisted state (paper
 *       section 2.2.2) and capture is side-effect free, the
 *       fingerprint is byte-identical to Replay's. The one Replay
 *       feature fork mode cannot offer is collectStatsDumps: a
 *       per-point stats dump is the property of a full dedicated run.
 *
 * Everything is derived from the configuration and the probe, so a
 * sweep is exactly reproducible for a fixed seed — fingerprint()
 * collapses the outcome into one comparable string.
 */

#ifndef CNVM_CORE_CRASH_SWEEP_HH
#define CNVM_CORE_CRASH_SWEEP_HH

#include <array>
#include <string>
#include <vector>

#include "core/crash_injector.hh"
#include "core/crash_oracle.hh"
#include "core/system.hh"

namespace cnvm
{

/** What the probe run observed. */
struct SweepProbe
{
    Tick endTick = 0;
    std::uint64_t txnsIssued = 0;

    /** Occurrences of each CtlEvent over the whole run. */
    std::array<std::uint64_t, numCtlEvents> eventCounts{};

    std::uint64_t
    countOf(CtlEvent ev) const
    {
        return eventCounts[static_cast<unsigned>(ev)];
    }
};

/** Outcome of one crash point. */
struct SweepPoint
{
    CrashSpec spec;

    /** False when the workloads finished before the trigger fired. */
    bool crashed = false;

    CrashSnapshot snapshot;

    /** Worst classification over all per-core regions. */
    CrashClass cls = CrashClass::Consistent;

    /** First inconsistent region's failure detail (empty if none). */
    std::string detail;

    std::uint64_t mismatchedLines = 0;
    std::uint64_t committedTxns = 0;

    /** Corruption accounting over all regions (fault sweeps). */
    std::uint64_t faultedLines = 0;
    std::uint64_t detectedCorruptions = 0;
    std::uint64_t repairedLines = 0;
    std::uint64_t unrecoverableLines = 0;

    /** Replay accounting over all regions (replay-dosed sweeps):
     *  ground-truth replayed lines vs. replays recovery caught. */
    std::uint64_t replayedLines = 0;
    std::uint64_t replaysDetected = 0;

    /** Full stats dump of the point's System, collected only when
     *  SweepOptions::collectStatsDumps is set (determinism checks). */
    std::string statsDump;
};

/** Execute-phase strategy (see the file header). */
enum class SweepMode
{
    Replay, //!< one dedicated crashed simulation per point (reference)
    Fork,   //!< one trunk run; capture persistent-state forks, classify
            //!< them off-trunk
};

const char *sweepModeName(SweepMode mode);

/** How to run a sweep (step 2 shape and step 3 execution). */
struct SweepOptions
{
    unsigned points = 20;

    /** Execute-phase strategy. Fork is the fast path; Replay the
     *  reference it is regression-tested against. */
    SweepMode mode = SweepMode::Replay;

    /**
     * Concurrency of the Execute phase. 1 is the serial reference
     * loop; 0 asks for WorkPool::hardwareJobs(). Results are merged
     * in plan order, so fingerprints and stats are identical at any
     * value.
     */
    unsigned jobs = 1;

    /** Capture each point's full stats dump into SweepPoint.
     *  Replay mode only: a fork has no dedicated System to dump, so
     *  fork-mode points leave statsDump empty. */
    bool collectStatsDumps = false;

    /**
     * Base fault dose. When any() is set, every planned point gets
     * this dose with a per-point seed derived from faults.seed and
     * the plan index (FaultSpec::forPoint) — deterministic across
     * Replay/Fork modes and any job count. Default: clean crashes.
     */
    FaultSpec faults;
};

/** Aggregate sweep outcome. */
struct SweepResult
{
    SweepProbe probe;
    std::vector<SweepPoint> points;

    unsigned
    countOf(CrashClass cls) const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed && p.cls == cls;
        return n;
    }

    /** Crash points whose recovery failed, any class. */
    unsigned
    inconsistentPoints() const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed && p.cls != CrashClass::Consistent;
        return n;
    }

    /** Failed points attributable to counter/data divergence. */
    unsigned
    mismatchPoints() const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed && isCounterDataMismatch(p.cls);
        return n;
    }

    /** Points whose trigger never fired (run completed first). */
    unsigned
    unreachedPoints() const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += !p.crashed;
        return n;
    }

    /** Points where injected corruption went entirely unnoticed.
     *  Deliberately excludes SilentReplay, which has its own counter —
     *  callers gating MAC-only fault sweeps keep meaning what they
     *  always meant. */
    unsigned silentPoints() const
    { return countOf(CrashClass::SilentCorruption); }

    /** Points where a replayed line was consumed unnoticed. */
    unsigned silentReplayPoints() const
    { return countOf(CrashClass::SilentReplay); }

    /** Points where recovery caught a replay (integrity tree). */
    unsigned replayDetectedPoints() const
    { return countOf(CrashClass::ReplayDetected); }

    /** Sum of a per-point corruption counter over reached points. */
    std::uint64_t
    totalOf(std::uint64_t SweepPoint::*field) const
    {
        std::uint64_t n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed ? p.*field : 0;
        return n;
    }

    /** Deterministic one-line digest of every point's spec and class. */
    std::string fingerprint() const;
};

/** Probes one configuration (step 1). */
SweepProbe probeRun(const SystemConfig &cfg);

/** Plans @p points crash specs from a probe (step 2). */
std::vector<CrashSpec> planSweep(const SweepProbe &probe, unsigned points);

/** Executes one planned crash point against a fresh System (step 3,
 *  Replay mode). */
SweepPoint runSweepPoint(const SystemConfig &cfg, const CrashSpec &spec,
                         bool collect_stats = false);

/**
 * Classifies one captured crash point off-trunk (step 3, Fork mode):
 * recovery + oracle census over the fork's persisted image and frozen
 * digest logs. Reads only immutable configuration from @p trunk (the
 * controller's design/layout/engine and each workload's region
 * layout), so it is safe to call from a worker thread while the trunk
 * is still simulating. Produces the same SweepPoint a Replay-mode
 * runSweepPoint() of @p spec would.
 */
SweepPoint classifyFork(const System &trunk, const CrashSpec &spec,
                        const PersistFork &fork);

/** Probe + plan + execute, the Execute phase on a pool of
 *  SweepOptions::jobs. */
SweepResult runSweep(const SystemConfig &cfg, const SweepOptions &opt);

/** Convenience overload with serial execution (jobs == 1). */
SweepResult runSweep(const SystemConfig &cfg, unsigned points);

} // namespace cnvm

#endif // CNVM_CORE_CRASH_SWEEP_HH
