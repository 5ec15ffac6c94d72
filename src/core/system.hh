/**
 * @file
 * Top-level system: wires cores, caches, the memory controller and the
 * NVM device for one design point, runs workloads, injects crashes, and
 * drives recovery.
 *
 * This is the library's primary entry point:
 *
 *   SystemConfig cfg;
 *   cfg.design = DesignPoint::SCA;
 *   cfg.workload = WorkloadKind::BTree;
 *   System sys(cfg);
 *   sys.run();
 *   std::cout << sys.runtimeNs() << " ns\n";
 */

#ifndef CNVM_CORE_SYSTEM_HH
#define CNVM_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/crash_injector.hh"
#include "core/crash_oracle.hh"
#include "core/persist_fork.hh"
#include "core/recovery.hh"
#include "cpu/core.hh"
#include "mem/channel_router.hh"
#include "mem/core_mem_path.hh"
#include "mem/live_view.hh"
#include "memctl/mem_controller.hh"
#include "memctl/persist_sequencer.hh"
#include "nvm/nvm_device.hh"
#include "sim/eventq.hh"
#include "stats/stats.hh"

namespace cnvm
{

/** Outcome of a simulation run. */
struct RunResult
{
    /** Last tick of interest: crash tick, or the latest core finish. */
    Tick endTick = 0;

    /** Whether the run was terminated by an injected power failure. */
    bool crashed = false;

    /** Transactions issued across all cores by the end of the run. */
    std::uint64_t txnsIssued = 0;
};

/**
 * Everything a live system needs to continue where a write-back
 * recovery left off — the output side of one soak cycle and the input
 * side of the next (see SoakDriver and DESIGN.md section 4i).
 */
struct ResumeState
{
    /** The write-back-committed recovered image: rolled-back lines
     *  re-persisted at their stored counters, log invalidated,
     *  integrity tree rebuilt, quarantined lines MAC-tombstoned. */
    PersistImage image;

    /** Per-core committed transaction counts the recovery matched
     *  (RecoveryReport::committedTxns) — the exact point each
     *  workload's deterministic replay fast-forwards to. */
    std::vector<std::uint64_t> committedTxns;

    /** Per-core quarantined line addresses (RecoveryReport::
     *  quarantinedLines): these read as zeros in the resumed system
     *  until the workload legitimately rewrites them. */
    std::vector<std::vector<Addr>> quarantined;

    /**
     * Per-core fresh-incarnation flags (empty means every core
     * resumes). A set flag marks a core whose committed state was
     * unrecoverably damaged — its recovery failed even in degraded
     * mode — so the core restarts its workload from scratch over the
     * surviving media: setup re-initializes its region exactly as a
     * first boot would, and its committedTxns/quarantined entries are
     * ignored. Counter allocation continues above every persisted
     * value (the channel re-seed runs first), so the fresh incarnation
     * never reuses an (address, counter) pair and the old
     * incarnation's residue is just dead-but-verifiable free space.
     */
    std::vector<std::uint8_t> fresh;
};

class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /**
     * Resume-after-recovery construction: builds the same machine as
     * System(cfg), but instead of installing fresh initial state it
     * re-seeds from @p resume — the recovered image becomes the
     * persisted state, each workload deterministically fast-forwards
     * to its committed transaction count (regenerating its digest log
     * and shadow exactly as the pre-crash run produced them), each
     * core's live view becomes a copy of its fast-forwarded shadow's
     * table with quarantined lines reading as zeros, and every channel's
     * controller rebuilds its counter state from the persisted store
     * exactly as a crash's dropVolatileState() does. Works under any
     * numChannels configuration. cfg.wl.txnTarget must exceed every
     * core's committed count, or the resumed run has nothing left to
     * do. The image moves into the device: pass the state with
     * std::move to hand it over, or an lvalue to keep a shared copy.
     */
    System(const SystemConfig &cfg, ResumeState resume);

    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Runs every core's workload to completion. */
    RunResult run();

    /**
     * Runs until @p crash_tick, then models a power failure: cores
     * halt, caches and unready queue entries are lost, ADR drains the
     * ready entries. If all cores finish first, no crash happens.
     */
    RunResult runWithCrashAt(Tick crash_tick);

    /**
     * Runs with a power failure armed at an arbitrary crash point —
     * an absolute tick or the Nth semantic controller event (see
     * CrashSpec). If the workloads finish before the trigger fires,
     * no crash happens.
     */
    RunResult runWithCrash(const CrashSpec &spec);

    /** Consumer of captured forks: (plan index, the fork). */
    using ForkSink = std::function<void(std::size_t, PersistFork)>;

    /**
     * The trunk side of a fork-based crash sweep: arms *all* of
     * @p specs against this one run, and whenever one fires, hands a
     * self-contained PersistFork to @p sink instead of crashing —
     * the run continues to completion. Each fork carries exactly the
     * persisted state an in-place crash at that point would have left
     * behind (ADR drain included), so classifying it off-trunk is
     * equivalent to a dedicated replay crash there. Capture is
     * side-effect free: the run's timing, stats and results are
     * byte-identical to an unarmed run(). Specs that never trigger
     * (workloads finish first) are simply never delivered — the same
     * "unreached" semantics a replay run has.
     */
    RunResult runWithForkCapture(const std::vector<CrashSpec> &specs,
                                 ForkSink sink);

    /** Controller state at the power-failure instant (valid=false when
     *  the run completed without crashing). */
    const CrashSnapshot &crashSnapshot() const { return snapshot; }

    /** Recovers and verifies every core's region after a crash. */
    std::vector<RecoveryReport> recoverAll();

    /** Recovers and classifies every core's region (crash oracle). */
    std::vector<OracleReport> examineAll();

    /** Aggregate: true iff every region recovered consistently. */
    bool recoveredConsistently(std::string *first_failure = nullptr);

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /** Wall time of the run, to the latest core finish (or crash). */
    double runtimeNs() const
    { return static_cast<double>(lastResult.endTick) / ticksPerNs; }

    /** Committed transactions per second of simulated time. */
    double throughputTxnPerSec() const;

    std::uint64_t nvmBytesWritten() const { return nvmDev.bytesWritten(); }
    std::uint64_t nvmBytesRead() const { return nvmDev.bytesRead(); }

    /** Counter cache read miss rate (0 for designs without one). */
    double counterCacheMissRate() const;

    stats::StatRegistry &statsRegistry() { return registry; }

    /** Channel 0's controller — the configuration reference every
     *  channel shares (recovery and the oracle read only immutable
     *  config and address-space helpers from it). */
    MemController &controller() { return *memCtls.front(); }
    const MemController &controller() const { return *memCtls.front(); }

    /** A specific channel's controller. */
    MemController &controller(unsigned channel)
    { return *memCtls.at(channel); }
    const MemController &controller(unsigned channel) const
    { return *memCtls.at(channel); }

    unsigned numChannels() const { return cfg.numChannels; }

    /**
     * Installs a semantic-event observer on *every* channel (events
     * from all channels funnel into one hook, in event-loop order).
     * The sweep's probe census and the crash injector go through
     * here — hooking only channel 0 would blind them to the other
     * channels' activity.
     */
    void setCtlEventHook(std::function<void(CtlEvent)> hook);

    /**
     * Models a power failure across all channels right now: the fork
     * capture of this instant (crashDrain()) applied to the device's
     * own image, then every controller drops its volatile state and
     * every live view is emptied — a power failure persists none of
     * them. The one crash path of a System at any channel count — the
     * injected failures of runWithCrash() take it too. The
     * clean-shutdown image check in the CLI uses it undosed.
     *
     * @param faults the dose: energy loss off the tail of the global
     *        drain order, then media faults on the drained image.
     */
    void crashChannels(const FaultSpec &faults = {});

    NvmDevice &nvm() { return nvmDev; }
    const NvmDevice &nvm() const { return nvmDev; }

    /** Core @p core's program-order plaintext (see LiveView): a copy
     *  of its shadow's table at build, sharing every page until the
     *  shadow or a retiring store writes one. */
    const LiveView &live(unsigned core) const { return liveViews.at(core); }
    Workload &workload(unsigned core) { return *workloads.at(core); }
    const Workload &workload(unsigned core) const
    { return *workloads.at(core); }
    unsigned numCores() const { return cfg.numCores; }
    const SystemConfig &config() const { return cfg; }
    EventQueue &eventQueue() { return eventq; }

    /** One-line description of the configured design point. */
    std::string describe() const;

  private:
    SystemConfig cfg;
    EventQueue eventq;
    stats::StatRegistry registry;
    NvmDevice nvmDev;

    /** Shared persist-order source across every channel's queues. */
    PersistSequencer sequencer;

    /** One controller per channel; index == channel id. */
    std::vector<std::unique_ptr<MemController>> memCtls;

    /** Address-interleaved fan-out (only built when numChannels > 1;
     *  a single channel wires the paths straight to the controller). */
    std::unique_ptr<ChannelRouter> router;

    std::vector<std::unique_ptr<Workload>> workloads;

    /** One live view per core; core i's memory path holds a reference
     *  to liveViews[i], so the vector is sized before the paths are
     *  built and never resized. Declared before them so it outlives
     *  them. */
    std::vector<LiveView> liveViews;

    std::vector<std::unique_ptr<CoreMemPath>> memPaths;
    std::vector<std::unique_ptr<Core>> cores;

    unsigned finishedCores = 0;
    RunResult lastResult;
    CrashSnapshot snapshot;
    std::unique_ptr<CrashInjector> injector;

    /** The spec runWithCrash() armed — doCrash() reads its fault dose. */
    CrashSpec activeSpec;

    /** Wires the machine; @p resume (null on a first boot) gives up
     *  its image to the device. */
    void build(ResumeState *resume);

    /**
     * Boots core @p core's workload as a first boot would: runs its
     * setup into the shadow, makes the core's live view a copy of the
     * shadow's table — one shared set of pages — and installs every
     * line setup touched into the persisted image, in ascending
     * address order.
     */
    void installFresh(unsigned core);

    /** Controller occupancy across every channel, right now. */
    CrashSnapshot snapshotNow() const;

    void doCrash();
    RunResult runInternal();

    /**
     * What a power failure at this instant persists, applied to
     * @p img (the device's own image, or a fork's copy): the global
     * ADR cut from computeDrainKeeps over every channel's queued
     * entries, with @p faults' energy loss; each channel's keep prefix
     * drained; the integrity tree rebuilt over the merged image, root
     * last; then @p faults' media faults. Returns the per-channel
     * cuts and changes no controller, so crashChannels() and
     * captureFork() share every persisted byte.
     */
    std::vector<AdrCut> crashDrain(PersistImage &img,
                                   const FaultSpec &faults) const;

    /** Captures the crash closure of the current instant (see
     *  PersistFork): persisted image + ADR overlay + @p spec's fault
     *  dose, controller snapshot, per-core digest logs. const — the
     *  fork's image shares the trunk's pages, and the drain and the
     *  faults copy each page they write, never touching the trunk's. */
    PersistFork captureFork(const CrashSpec &spec) const;
};

} // namespace cnvm

#endif // CNVM_CORE_SYSTEM_HH
