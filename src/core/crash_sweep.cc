#include "core/crash_sweep.hh"

#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "runner/runner.hh"

namespace cnvm
{

namespace
{

/** Severity order for aggregating per-region classes into one. */
unsigned
severity(CrashClass cls)
{
    switch (cls) {
      case CrashClass::Consistent: return 0;
      case CrashClass::Inconsistent: return 1;
      case CrashClass::TornData: return 2;
      case CrashClass::TornCounter: return 3;
      case CrashClass::CounterDataMismatch: return 4;
      case CrashClass::DetectedCorruption: return 5;
      case CrashClass::ReplayDetected: return 6;
      case CrashClass::SilentCorruption: return 7;
      case CrashClass::SilentReplay: return 8;
    }
    return 0;
}

/** Folds one region's oracle report into its point's aggregate. */
void
accumulate(SweepPoint &point, const OracleReport &report)
{
    if (severity(report.cls) > severity(point.cls)) {
        point.cls = report.cls;
        point.detail = report.recovery.detail;
    }
    point.mismatchedLines += report.mismatchedLines();
    point.committedTxns += report.recovery.committedTxns;
    point.faultedLines += report.faultedLines;
    point.replayedLines += report.replayedLines;
    point.detectedCorruptions += report.recovery.detectedCorruptions;
    point.replaysDetected += report.recovery.replaysDetected;
    point.repairedLines += report.recovery.repairedLines;
    point.unrecoverableLines += report.recovery.unrecoverableLines;
}

/** Semantic kinds in planning order. */
constexpr CrashTriggerKind semanticKinds[] = {
    CrashTriggerKind::DataDrain,
    CrashTriggerKind::PipelineEnter,
    CrashTriggerKind::CtrDrain,
    CrashTriggerKind::PairAction,
    CrashTriggerKind::DirtyEviction,
};

} // anonymous namespace

const char *
sweepModeName(SweepMode mode)
{
    switch (mode) {
      case SweepMode::Replay: return "replay";
      case SweepMode::Fork: return "fork";
    }
    return "?";
}

SweepProbe
probeRun(const SystemConfig &cfg)
{
    System sys(cfg);
    SweepProbe probe;
    sys.setCtlEventHook([&probe](CtlEvent ev) {
        ++probe.eventCounts[static_cast<unsigned>(ev)];
    });
    RunResult result = sys.run();
    probe.endTick = result.endTick;
    probe.txnsIssued = result.txnsIssued;
    return probe;
}

std::vector<CrashSpec>
planSweep(const SweepProbe &probe, unsigned points)
{
    cnvm_assert(probe.endTick > 0);

    // Candidate kinds: ticks always; each semantic kind only if the
    // probe saw it at all (an FCA run has no dirty evictions to crash
    // at, an unencrypted one no pairings).
    std::vector<CrashTriggerKind> kinds{CrashTriggerKind::AtTick};
    for (CrashTriggerKind kind : semanticKinds) {
        auto ev = ctlEventFor(kind);
        if (ev && probe.countOf(*ev) > 0)
            kinds.push_back(kind);
    }

    // Round-robin the budget over the kinds, then spread each kind's
    // share evenly over its domain (runtime, or observed ordinals).
    std::vector<unsigned> share(kinds.size(), 0);
    for (unsigned i = 0; i < points; ++i)
        ++share[i % kinds.size()];

    std::vector<CrashSpec> specs;
    specs.reserve(points);
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        CrashTriggerKind kind = kinds[k];
        unsigned n = share[k];
        if (kind == CrashTriggerKind::AtTick) {
            for (unsigned i = 0; i < n; ++i) {
                Tick t = probe.endTick
                    * static_cast<std::uint64_t>(i + 1) / (n + 1);
                specs.push_back(CrashSpec::atTick(std::max<Tick>(t, 1)));
            }
        } else {
            std::uint64_t total = probe.countOf(*ctlEventFor(kind));
            for (unsigned i = 0; i < n; ++i) {
                std::uint64_t nth = 1 + total * i / n;
                specs.push_back(CrashSpec::atEvent(kind, nth));
            }
        }
    }
    return specs;
}

SweepPoint
runSweepPoint(const SystemConfig &cfg, const CrashSpec &spec,
              bool collect_stats)
{
    SweepPoint point;
    point.spec = spec;

    System sys(cfg);
    RunResult result = sys.runWithCrash(spec);
    point.crashed = result.crashed;
    point.snapshot = sys.crashSnapshot();

    if (point.crashed) {
        for (const OracleReport &report : sys.examineAll())
            accumulate(point, report);
    }

    if (collect_stats) {
        std::ostringstream os;
        sys.statsRegistry().dump(os);
        point.statsDump = os.str();
    }
    return point;
}

SweepPoint
classifyFork(const System &trunk, const CrashSpec &spec,
             const PersistFork &fork)
{
    SweepPoint point;
    point.spec = spec;
    point.crashed = true;
    point.snapshot = fork.snapshot;

    CrashOracle oracle(fork.image, trunk.controller());
    for (unsigned c = 0; c < trunk.numCores(); ++c)
        accumulate(point, oracle.examine(trunk.workload(c),
                                         &fork.coreDigests.at(c)));
    return point;
}

namespace
{

/**
 * Fork-mode Execute: arm the whole plan on one trunk System; every
 * firing spec captures a PersistFork and is classified off-trunk on
 * the pool, pipelined with the still-running trunk. Points whose
 * trigger never fires keep their preset unreached state — the same
 * semantics a Replay run that completes before its trigger has.
 */
void
executeForkSweep(const SystemConfig &cfg,
                 const std::vector<CrashSpec> &plan, WorkPool &pool,
                 SweepResult &result)
{
    result.points.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        result.points[i].spec = plan[i];

    System trunk(cfg);
    trunk.runWithForkCapture(
        plan, [&](std::size_t i, PersistFork fork) {
            // The fork moves into shared ownership: the capture
            // callback returns (the trunk resumes) while a worker may
            // still be classifying.
            auto owned = std::make_shared<PersistFork>(std::move(fork));
            pool.submit([&trunk, &plan, &result, i, owned]() {
                result.points[i] = classifyFork(trunk, plan[i], *owned);
            });
        });
    // The trunk has finished; drain the classification tail before it
    // goes out of scope (classifyFork reads its immutable config).
    pool.waitSubmitted();
}

} // anonymous namespace

SweepResult
runSweep(const SystemConfig &cfg, const SweepOptions &opt)
{
    SweepResult result;
    result.probe = probeRun(cfg);
    std::vector<CrashSpec> plan = planSweep(result.probe, opt.points);

    // Fault sweeps dose every point identically but seed each point's
    // fault RNG from (base seed, plan index), so the whole sweep is a
    // pure function of the configuration and the base seed — in both
    // Execute modes, at any job count.
    if (opt.faults.any()) {
        for (std::size_t i = 0; i < plan.size(); ++i)
            plan[i].faults = opt.faults.forPoint(i);
    }

    WorkPool pool(opt.jobs);
    if (opt.mode == SweepMode::Fork) {
        executeForkSweep(cfg, plan, pool, result);
        return result;
    }

    // Each point owns its System/CrashInjector/CrashOracle, so the
    // Execute phase is embarrassingly parallel; map() collects each
    // SweepPoint into its plan-order slot, keeping fingerprint()
    // byte-identical to the serial path at any job count.
    result.points = pool.map<SweepPoint>(plan.size(), [&](std::size_t i) {
        return runSweepPoint(cfg, plan[i], opt.collectStatsDumps);
    });
    return result;
}

SweepResult
runSweep(const SystemConfig &cfg, unsigned points)
{
    SweepOptions opt;
    opt.points = points;
    return runSweep(cfg, opt);
}

std::string
SweepResult::fingerprint() const
{
    std::ostringstream os;
    for (const SweepPoint &p : points) {
        os << p.spec.describe() << "=";
        if (!p.crashed) {
            os << "unreached";
        } else {
            os << crashClassName(p.cls) << "@" << p.snapshot.tick << "/"
               << p.mismatchedLines;
            // Fault points append their corruption accounting; clean
            // points keep the historical fingerprint format.
            if (p.spec.faults.any()) {
                os << "/f" << p.faultedLines << "d"
                   << p.detectedCorruptions << "r" << p.repairedLines
                   << "u" << p.unrecoverableLines;
                // Replay accounting appears only when replays were
                // dosed, so replay-free fault sweeps keep their
                // historical fingerprints.
                if (p.spec.faults.replays > 0)
                    os << "p" << p.replayedLines << "k"
                       << p.replaysDetected;
            }
        }
        os << ";";
    }
    return os.str();
}

} // namespace cnvm
