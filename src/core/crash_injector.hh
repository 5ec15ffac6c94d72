/**
 * @file
 * Arming power failures at arbitrary controller states.
 *
 * The paper's claim is about crashes at *any* memory-controller state,
 * but a runtime-fraction crash point can only ever hit states that are
 * long-lived. The injector closes that gap: a CrashSpec names either an
 * absolute tick or the Nth occurrence of a semantic controller event
 * (Nth data-queue drain, Nth dirty counter eviction, a write sitting in
 * the encryption pipeline, the Nth ready-bit pairing), and the injector
 * fires the system's power-failure path exactly there.
 *
 * One injector arms any number of CrashSpecs against a single run. The
 * classic use is one spec whose fire callback tears the system down
 * (System::doCrash); the fork-based sweep instead arms the *whole
 * plan* and fires a side-effect-free capture callback per spec, so the
 * run keeps going — each spec still fires at exactly the tick and
 * ordinal it would have fired at alone, because observing events and
 * capturing forks perturbs nothing.
 *
 * Firing is deferred through the event queue at minimum priority: the
 * hook that observes the triggering event runs deep inside controller
 * code, and tearing the controller down (or snapshotting it) under its
 * own feet would corrupt the very state the sweep wants to examine.
 * Scheduling at the current tick crashes "immediately after the
 * triggering action", before any other pending model activity of the
 * same tick.
 */

#ifndef CNVM_CORE_CRASH_INJECTOR_HH
#define CNVM_CORE_CRASH_INJECTOR_HH

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "memctl/mem_controller.hh"
#include "nvm/fault_model.hh"
#include "sim/eventq.hh"

namespace cnvm
{

/** How a crash point is addressed. */
enum class CrashTriggerKind
{
    AtTick,        //!< power failure at an absolute tick
    PipelineEnter, //!< as the Nth write enters the encryption pipeline
    PairAction,    //!< right after the Nth ready-bit pairing action
    DirtyEviction, //!< at the Nth dirty counter-cache eviction
    DataDrain,     //!< after the Nth data write-queue drain
    CtrDrain,      //!< after the Nth counter write-queue drain
};

const char *crashTriggerName(CrashTriggerKind kind);

/** The controller event a semantic trigger kind watches (none for
 *  AtTick). */
std::optional<CtlEvent> ctlEventFor(CrashTriggerKind kind);

/** One crash point. */
struct CrashSpec
{
    CrashTriggerKind kind = CrashTriggerKind::AtTick;

    /** Crash tick (AtTick only). */
    Tick tick = 0;

    /** Occurrence ordinal, 1-based (semantic kinds only). */
    std::uint64_t count = 1;

    /**
     * Persistence faults injected at this crash point (none by
     * default — the clean power failure). Applied by the System's
     * crash and fork-capture paths, never by the injector itself.
     */
    FaultSpec faults;

    static CrashSpec
    atTick(Tick t)
    {
        CrashSpec s;
        s.kind = CrashTriggerKind::AtTick;
        s.tick = t;
        return s;
    }

    static CrashSpec
    atEvent(CrashTriggerKind kind, std::uint64_t nth)
    {
        CrashSpec s;
        s.kind = kind;
        s.count = nth;
        return s;
    }

    /** "tick 123456" / "pair-action #7", for reports and fingerprints. */
    std::string describe() const;
};

/**
 * Arms one or more CrashSpecs against one run. The owning System wires
 * onCtlEvent() into MemController::setEventHook() when any spec is
 * semantic and calls start() before the run; the injector invokes the
 * supplied fire callback (with the index of the triggering spec) at
 * most once per spec. Specs are independent: each fires at its own
 * tick/ordinal regardless of how many others fired first.
 *
 * Each scheduled power failure is an event that captures the injector,
 * so none may outlive it. The owning System keeps the injector until
 * its next armed run, and by then no failure is pending: a crashed run
 * fired its one spec, and a completed run's settle pass drained the
 * queue. A System destroyed first destroys pending failures unrun.
 */
class CrashInjector
{
  public:
    /** Per-spec fire callback: receives the index into the specs. */
    using FireFn = std::function<void(std::size_t)>;

    CrashInjector(EventQueue &eq, std::vector<CrashSpec> specs,
                  FireFn fire);

    CrashInjector(const CrashInjector &) = delete;
    CrashInjector &operator=(const CrashInjector &) = delete;

    /** Schedules the tick triggers (no-op for semantic specs). */
    void start();

    /** Observer for MemController semantic events. */
    void onCtlEvent(CtlEvent ev);

    /**
     * Cancels every not-yet-fired spec (run completed first). A power
     * failure already scheduled still runs, as a no-op.
     */
    void disarm() { disarmed = true; }

  private:
    /** Schedules spec @p i's power failure at tick @p when. */
    void scheduleFailure(std::size_t i, Tick when);

    EventQueue &eventq;
    FireFn fire;
    std::vector<CrashSpec> specs;
    bool disarmed = false;

    /** Occurrences of each CtlEvent observed so far. */
    std::array<std::uint64_t, numCtlEvents> seen{};

    /**
     * Pending semantic specs, per watched event: ordinal -> spec
     * index. A multimap because a plan may legitimately contain
     * duplicate points (kind and ordinal both equal); each duplicate
     * fires once, at the same instant.
     */
    std::array<std::multimap<std::uint64_t, std::size_t>, numCtlEvents>
        pendingByEvent;
};

} // namespace cnvm

#endif // CNVM_CORE_CRASH_INJECTOR_HH
