#include "workloads.hh"

#include <algorithm>
#include <memory>

#include "bench/bench_util.hh"
#include "common/hash.hh"
#include "core/recovery.hh"
#include "nvm/fault_model.hh"

namespace perfbench
{

using namespace cnvm;

const char *
workloadName(WorkloadId w)
{
    switch (w) {
      case WorkloadId::Scale16c8ch: return "scale-16c8ch";
      case WorkloadId::CrashRecovery: return "crash-recovery";
    }
    return "?";
}

std::optional<WorkloadId>
workloadFromName(const std::string &name)
{
    for (WorkloadId w : {WorkloadId::Scale16c8ch, WorkloadId::CrashRecovery})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

Seeds
Seeds::derive(std::uint64_t seed)
{
    // Distinct streams per consumer, so a workload seed never equals
    // the fault seed it is paired with.
    Seeds s;
    s.workload = fnv1aU64(seed, fnv1aU64(0x574cull)); // "WL"
    s.fault = fnv1aU64(seed, fnv1aU64(0x464c54ull));  // "FLT"
    s.soak = fnv1aU64(seed, fnv1aU64(0x534f414bull)); // "SOAK"
    return s;
}

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

std::vector<WorkloadKind>
scaleKinds()
{
    return {WorkloadKind::HashTable, WorkloadKind::BTree};
}

SystemConfig
scaleConfig(WorkloadKind kind, const Seeds &seeds)
{
    // 16 x 2 MB = 32 MB of data, 4x the 8 MB the 1 MB counter cache
    // covers; 1000 txns/core keep the run phase longer than the build.
    SystemConfig cfg = bench::paperConfig(kind, DesignPoint::SCA, 16, 1000);
    cfg.numChannels = 8;
    cfg.wl.regionBytes = 2ull << 20;
    cfg.wl.seed = seeds.workload;
    return cfg;
}

std::vector<DesignPoint>
crashDesigns()
{
    return {DesignPoint::ColocatedCC, DesignPoint::FCA, DesignPoint::SCA,
            DesignPoint::Unsafe};
}

SystemConfig
sweepConfig(DesignPoint design, const Seeds &seeds)
{
    // cnvm_crash_sweep's defaults, with the MAC and the tree armed.
    SystemConfig cfg;
    cfg.design = design;
    cfg.wl.regionBytes = 256u << 10;
    cfg.wl.txnTarget = 40;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    cfg.wl.seed = seeds.workload;
    cfg.memctl.counterCacheBytes = 16u << 10;
    cfg.memctl.integrityMac = true;
    cfg.memctl.integrityTree = true;
    return cfg;
}

FaultSpec
sweepFaults(const Seeds &seeds)
{
    return FaultSpec::allKindsWithReplays(seeds.fault);
}

SystemConfig
soakConfig(DesignPoint design, const Seeds &seeds)
{
    SystemConfig cfg = sweepConfig(design, seeds);
    cfg.wl.regionBytes = 2ull << 20;
    return cfg;
}

SoakOptions
soakOptions(const Seeds &seeds)
{
    SoakOptions opt;
    opt.cycles = 4;
    opt.faults = sweepFaults(seeds);
    opt.seed = seeds.soak;
    return opt;
}

void
makeNegativeControl(SystemConfig &cfg)
{
    cfg.design = DesignPoint::Unsafe;
    cfg.memctl.integrityMac = false;
    cfg.memctl.integrityTree = false;
}

// ---------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------

double
Pass::cpuOf(const std::string &phase) const
{
    auto it = cpu.find(phase);
    return it == cpu.end() ? 0 : it->second.seconds;
}

namespace
{

std::string
configName(const SystemConfig &cfg)
{
    return std::string(designName(cfg.design)) + "/"
         + workloadKindName(cfg.workload)
         + (cfg.memctl.integrityTree ? "/tree" : "") + "/"
         + std::to_string(cfg.numCores) + "c"
         + std::to_string(cfg.numChannels) + "ch";
}

/** Isolated makeWorkload + setup with a no-op writer, per core of
 *  @p sys, on the parameters the System gave each core. */
void
isolatedSetup(System &sys, Tracer &tracer, Pass &pass)
{
    const SystemConfig &cfg = sys.config();
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        WorkloadParams wl = cfg.wl;
        wl.regionBase = sys.workload(c).regionBase();
        wl.seed = cfg.coreSeed(c);
        Span s(tracer, "workloads.setup");
        std::unique_ptr<Workload> w = makeWorkload(cfg.workload, wl);
        w->setup([](Addr, const void *, unsigned) {});
        pass.cpu["workloads.setup"].add(s.stop());
        pass.counts.add("workloads.lines_installed",
                        static_cast<double>(w->shadowMem().touchedLines()));
    }
}

/** The isolated per-layer calls on one captured fork: image copy,
 *  fault dose on the copy, root verification (RecoveredImage
 *  construction), pre-scan and recovery. */
void
isolatedForkCalls(const System &trunk, const CrashSpec &spec,
                  const PersistFork &fork, Tracer &tracer, Pass &pass)
{
    const MemController &ctl = trunk.controller();
    {
        Span copy_span(tracer, "nvm.image_copy");
        PersistImage copy = fork.image;
        pass.cpu["nvm.image_copy"].add(copy_span.stop());
        Span dose_span(tracer, "nvm.fault_dose");
        FaultModel fm(spec.faults, ctl.config().counterRegionBase);
        fm.adrDropCount(0);
        fm.applyMediaFaults(copy);
        pass.cpu["nvm.fault_dose"].add(dose_span.stop());
    }
    {
        Span verify_span(tracer, "integrity.root_verify");
        RecoveredImage img(fork.image, ctl);
        pass.cpu["integrity.root_verify"].add(verify_span.stop());
        Span scan_span(tracer, "recovery.prescan");
        double lines = 0;
        for (unsigned c = 0; c < trunk.numCores(); ++c) {
            const Workload &wl = trunk.workload(c);
            img.preScan(wl.regionBase(), wl.regionEnd(), nullptr, nullptr);
            lines += static_cast<double>(wl.regionEnd() - wl.regionBase())
                   / lineBytes;
        }
        pass.cpu["recovery.prescan"].add(scan_span.stop());
        pass.counts.add("recovery.prescan_lines", lines);
    }
    {
        Span recover_span(tracer, "recovery.recover");
        RecoveryEngine engine(fork.image, ctl);
        for (unsigned c = 0; c < trunk.numCores(); ++c)
            engine.recover(trunk.workload(c), &fork.coreDigests.at(c));
        pass.cpu["recovery.recover"].add(recover_span.stop());
    }
}

/** Isolated resume: System(cfg, ResumeState) from one write-back-
 *  recovered image of the soak machine, crashed half-way through a
 *  cycle's worth of transactions. */
void
isolatedResume(const SystemConfig &base, const SoakOptions &opt,
               Tracer &tracer, Pass &pass)
{
    SystemConfig cfg = base;
    cfg.wl.txnTarget = opt.txnsPerCycle;
    SweepProbe probe = probeRun(cfg);
    System sys(cfg);
    sys.runWithCrash(CrashSpec::atTick(std::max<Tick>(probe.endTick / 2, 1)));

    PersistImage img = sys.nvm().persistedState();
    RecoveryOptions ropt;
    ropt.degraded = true;
    ropt.commitTo = &img;
    ResumeState state;
    std::uint64_t max_committed = 0;
    {
        CrashOracle oracle(img, sys.controller());
        for (unsigned c = 0; c < sys.numCores(); ++c) {
            OracleReport rep = oracle.examine(sys.workload(c), nullptr, ropt);
            state.committedTxns.push_back(rep.recovery.committedTxns);
            state.quarantined.push_back(rep.recovery.quarantinedLines);
            max_committed =
                std::max(max_committed, rep.recovery.committedTxns);
        }
    }
    img.clearFaultGroundTruth();
    state.image = std::move(img);
    cfg.wl.txnTarget = static_cast<unsigned>(max_committed)
                     + opt.txnsPerCycle;

    Span s(tracer, "soak.resume");
    System resumed(cfg, state);
    pass.cpu["soak.resume"].add(s.stop());
}

OpOutcome
pointOutcome(DesignPoint design, std::size_t index, const SweepPoint &p)
{
    SweepResult one;
    one.points = {p};
    OpOutcome op;
    op.id = std::string(designName(design)) + "#" + std::to_string(index)
          + " " + one.fingerprint();
    if (p.crashed && (p.cls == CrashClass::SilentCorruption
                      || p.cls == CrashClass::SilentReplay)) {
        op.ok = false;
        op.why = op.id;
    }
    return op;
}

OpOutcome
cycleOutcome(DesignPoint design, const SoakCycle &cycle,
             const SoakChainResult &chain)
{
    OpOutcome op;
    op.id = std::string(designName(design)) + " " + cycle.describe();
    if (cycle.silent() || !chain.ok) {
        op.ok = false;
        op.why = op.id + (chain.ok ? " silent" : " chain: " + chain.failure);
    }
    return op;
}

} // anonymous namespace

OpOutcome
runSimOp(const SystemConfig &cfg, Tracer &tracer, Pass &pass)
{
    std::unique_ptr<System> sys;
    {
        Span s(tracer, "core.build");
        sys = std::make_unique<System>(cfg);
        pass.cpu["core.build"].add(s.stop());
    }
    RunResult run;
    {
        Span s(tracer, "sim.run");
        run = sys->run();
        pass.cpu["sim.run"].add(s.stop());
    }
    pass.counts.addSystem(*sys, run);
    if (tracer.recording())
        isolatedSetup(*sys, tracer, pass);

    OpOutcome op;
    op.id = configName(cfg) + " txns=" + std::to_string(run.txnsIssued)
          + " end=" + std::to_string(run.endTick)
          + " w=" + std::to_string(sys->nvmBytesWritten())
          + " r=" + std::to_string(sys->nvmBytesRead());
    auto fail = [&op](const std::string &why) {
        if (op.ok)
            op.why = op.id + ": " + why;
        op.ok = false;
    };
    for (unsigned c = 0; c < sys->numCores(); ++c) {
        std::uint64_t issued = sys->workload(c).txnsIssued();
        if (issued < cfg.wl.txnTarget)
            fail("core " + std::to_string(c) + " issued "
                 + std::to_string(issued) + " of "
                 + std::to_string(cfg.wl.txnTarget) + " txns");
    }
    {
        Span s(tracer, "check.crash_channels");
        sys->crashChannels();
    }
    pass.counts.add("nvm.images", 1);
    pass.counts.add("nvm.image_lines", static_cast<double>(
                        sys->nvm().persistedState().lineCount()));
    {
        Span s(tracer, "check.recover_all");
        std::vector<RecoveryReport> reports = sys->recoverAll();
        for (std::size_t c = 0; c < reports.size(); ++c)
            if (!reports[c].consistent)
                fail("clean-shutdown image of core " + std::to_string(c)
                     + " inconsistent: " + reports[c].detail);
    }
    {
        Span s(tracer, "core.teardown");
        sys.reset();
    }
    return op;
}

SweepResult
runForkSweep(const SystemConfig &cfg, unsigned points,
             const FaultSpec &faults, Tracer &tracer, Pass &pass)
{
    SweepResult result;
    {
        Span s(tracer, "sweep.probe");
        result.probe = probeRun(cfg);
        pass.cpu["sweep.probe"].add(s.stop());
    }
    std::vector<CrashSpec> plan;
    {
        Span s(tracer, "sweep.plan");
        plan = planSweep(result.probe, points);
        // Per-point fault seeds from (base seed, plan index), exactly
        // as runSweep derives them.
        if (faults.any())
            for (std::size_t i = 0; i < plan.size(); ++i)
                plan[i].faults = faults.forPoint(i);
        pass.cpu["sweep.plan"].add(s.stop());
    }
    // Unreached points keep their preset state, as in runSweep.
    result.points.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        result.points[i].spec = plan[i];

    std::unique_ptr<System> trunk;
    {
        Span s(tracer, "core.build");
        trunk = std::make_unique<System>(cfg);
        pass.cpu["core.build"].add(s.stop());
    }

    double sink_seconds = 0;
    RunResult run;
    {
        Span trunk_span(tracer, "sweep.trunk");
        run = trunk->runWithForkCapture(
            plan, [&](std::size_t i, PersistFork fork) {
                double t0 = processCpuSeconds();
                {
                    Span s(tracer, "oracle.classify");
                    result.points[i] = classifyFork(*trunk, plan[i], fork);
                    double cls = s.stop();
                    pass.cpu["oracle.classify"].add(cls);
                    pass.pointSeconds.push_back(cls);
                }
                pass.counts.add("nvm.images", 1);
                pass.counts.add("nvm.image_lines",
                                static_cast<double>(fork.image.lineCount()));
                if (tracer.recording())
                    isolatedForkCalls(*trunk, plan[i], fork, tracer, pass);
                sink_seconds += processCpuSeconds() - t0;
            });
        // Trunk-with-capture: the run minus the sink's classification
        // and isolated calls that nest inside it.
        pass.cpu["sweep.capture"].add(trunk_span.stop() - sink_seconds);
    }
    pass.counts.addSystem(*trunk, run);

    if (tracer.recording()) {
        isolatedSetup(*trunk, tracer, pass);
        System plain(cfg);
        Span s(tracer, "sweep.plain_run");
        plain.run();
        pass.cpu["sweep.plain_run"].add(s.stop());
    }

    for (const SweepPoint &p : result.points) {
        pass.counts.add("sweep.points_planned", 1);
        if (!p.crashed) {
            pass.counts.add("oracle.points.unreached", 1);
            continue;
        }
        pass.counts.add("sweep.forks", 1);
        pass.counts.add(std::string("oracle.points.") + crashClassName(p.cls),
                        1);
        pass.counts.add("recovery.detected",
                        static_cast<double>(p.detectedCorruptions));
        pass.counts.add("recovery.repaired",
                        static_cast<double>(p.repairedLines));
        pass.counts.add("recovery.unrecoverable",
                        static_cast<double>(p.unrecoverableLines));
        pass.counts.add("recovery.replays_detected",
                        static_cast<double>(p.replaysDetected));
    }
    return result;
}

SoakChainResult
runSoakOp(const SystemConfig &cfg, const SoakOptions &opt, Tracer &tracer,
          Pass &pass)
{
    SoakChainResult chain;
    {
        Span s(tracer, "soak.chain");
        chain = runSoakChain(cfg, opt);
        pass.cpu["soak.chain"].add(s.stop());
    }
    pass.counts.add("soak.cycles", static_cast<double>(chain.cycles.size()));
    pass.counts.add("soak.crashed_cycles", chain.crashedCycles());
    pass.counts.add("soak.dosed_cycles", chain.dosedCycles());
    pass.counts.add("soak.resets", chain.totalResets());
    pass.counts.add("soak.final_quarantined",
                    static_cast<double>(chain.finalQuarantined));
    return chain;
}

Pass
runPass(WorkloadId w, const Seeds &seeds, Tracer &tracer,
        bool inject_failure)
{
    Pass pass;
    switch (w) {
      case WorkloadId::Scale16c8ch: {
        std::vector<SystemConfig> cfgs;
        for (WorkloadKind kind : scaleKinds())
            cfgs.push_back(scaleConfig(kind, seeds));
        if (inject_failure)
            makeNegativeControl(cfgs.front());
        for (const SystemConfig &cfg : cfgs)
            pass.ops.push_back(runSimOp(cfg, tracer, pass));
        break;
      }
      case WorkloadId::CrashRecovery: {
        const std::vector<DesignPoint> designs = crashDesigns();
        const FaultSpec faults = sweepFaults(seeds);
        for (std::size_t d = 0; d < designs.size(); ++d) {
            SystemConfig cfg = sweepConfig(designs[d], seeds);
            if (inject_failure && d == 0)
                makeNegativeControl(cfg);
            SweepResult r = runForkSweep(cfg, sweepPoints, faults, tracer,
                                         pass);
            for (std::size_t i = 0; i < r.points.size(); ++i)
                pass.ops.push_back(pointOutcome(designs[d], i, r.points[i]));
        }
        const SoakOptions opt = soakOptions(seeds);
        for (DesignPoint d : designs) {
            SystemConfig cfg = soakConfig(d, seeds);
            SoakChainResult chain = runSoakOp(cfg, opt, tracer, pass);
            for (const SoakCycle &c : chain.cycles)
                pass.ops.push_back(cycleOutcome(d, c, chain));
            if (tracer.recording())
                isolatedResume(cfg, opt, tracer, pass);
        }
        break;
      }
    }
    return pass;
}

double
setupSeconds(WorkloadId w, const Pass &pass)
{
    if (w == WorkloadId::CrashRecovery)
        return pass.cpuOf("sweep.probe") + pass.cpuOf("sweep.plan")
             + pass.cpuOf("core.build");
    return pass.cpuOf("core.build");
}

double
runSeconds(WorkloadId w, const Pass &pass)
{
    if (w == WorkloadId::CrashRecovery)
        return pass.cpuOf("sweep.capture") + pass.cpuOf("oracle.classify")
             + pass.cpuOf("soak.chain");
    return pass.cpuOf("sim.run");
}

} // namespace perfbench
