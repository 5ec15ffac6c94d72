/**
 * @file
 * cnvm_bench — machine-readable performance harness.
 *
 * Times the simulator's hot paths with the same access patterns as the
 * google-benchmark micros (bench/micro_eventq.cc, bench/micro_memctl.cc)
 * plus one figure-style System run, and emits a JSON report:
 *
 *   - ns/op of each micro kernel (host time per simulated operation),
 *   - simulated-ticks-per-host-second of a full System run,
 *   - host wall time of every section.
 *
 * The committed BENCH_PR<N>.json files are produced by this tool in a
 * Release build; each one extends the perf trajectory the ROADMAP asks
 * for. A previous report can be embedded for comparison with
 * --baseline FILE (the file's JSON object is inlined verbatim).
 *
 *   tools/cnvm_bench --out BENCH_PR2.json [--quick] [--baseline PRE.json]
 *
 * Exit status: 0 on success, 1 if any self-check fails (the
 * behavior-preservation checks added with the queue indexes; the
 * fault-matrix gates: with integrity MACs armed, a media-fault sweep
 * must classify zero points as silent corruption; without them, the
 * same sweep must demonstrate at least one; the tree-matrix gates:
 * with the counter integrity tree armed, a replay-dosed sweep must
 * classify zero points silent of any kind while catching at least one
 * replay, and MAC-only must let at least one replay slip silently;
 * the recovery gates:
 * recovery output byte-identical at any --recovery-jobs value, and
 * the crash-during-recovery sweep idempotent — zero divergent points
 * over every design), 2 on usage errors.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "core/crash_sweep.hh"
#include "core/recovery_crash.hh"
#include "core/soak.hh"
#include "core/system.hh"
#include "memctl/mem_controller.hh"
#include "runner/runner.hh"
#include "sim/one_shot.hh"
#include "tool_args.hh"

using namespace cnvm;

namespace
{

using Clock = std::chrono::steady_clock;

[[noreturn]] void
usage(int code)
{
    std::fprintf(code == 0 ? stdout : stderr,
                 R"(cnvm_bench — machine-readable performance harness

options:
  --out FILE       write the JSON report to FILE (default: stdout)
  --baseline FILE  inline FILE's JSON verbatim under "baseline"
  --quick          smaller kernels and sweeps (CI smoke; the committed
                   BENCH_PR<N>.json files are full runs)
  --repeat N       repetitions per timed kernel, fastest kept (default 3)
  --jobs N         worker threads for the untimed checks and the fault
                   matrix (default: hardware concurrency)
  --help           this text
)");
    std::exit(code);
}

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** One measured kernel: ns per simulated operation. */
struct KernelResult
{
    std::string name;
    double nsPerOp = 0;
    std::uint64_t ops = 0;
    double hostMs = 0;
};

/** One measured System run: simulation rate. */
struct SystemResult
{
    std::string name;
    double simTicksPerSec = 0;
    std::uint64_t simTicks = 0;
    std::uint64_t txns = 0;
    double hostMs = 0;
};

// ----------------------------------------------------------------------
// micro_eventq kernels
// ----------------------------------------------------------------------

/**
 * Schedule a batch of preallocated events at scattered ticks, run.
 * Events are preallocated so the kernel times the queue itself, not
 * the one-shot allocator (which both implementations pay identically).
 */
KernelResult
benchEventqScheduleProcess(unsigned iters)
{
    constexpr int batch = 256;
    std::uint64_t sink = 0;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    events.reserve(batch);
    for (int i = 0; i < batch; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&]() { ++sink; }, "bench-event"));
    }
    auto start = Clock::now();
    for (unsigned it = 0; it < iters; ++it) {
        EventQueue eq;
        // Deterministic scattered ticks (LCG) to avoid in-order bias.
        std::uint64_t state = 0x123456789abcdef5ull + it;
        for (int i = 0; i < batch; ++i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            eq.schedule(*events[i], (state >> 33) % 1000000);
        }
        eq.run();
    }
    KernelResult r;
    r.name = "micro_eventq.schedule_process";
    r.hostMs = msSince(start);
    r.ops = static_cast<std::uint64_t>(iters) * batch;
    r.nsPerOp = r.hostMs * 1e6 / static_cast<double>(r.ops);
    if (sink != r.ops)
        std::fprintf(stderr, "eventq kernel dropped events!\n");
    return r;
}

/** Mirror of BM_MemberEventReschedule. */
KernelResult
benchEventqReschedule(std::uint64_t ops)
{
    class Tickless : public Event
    {
      public:
        void process() override {}
    } event;

    EventQueue eq;
    Tick when = 1;
    auto start = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        eq.reschedule(event, when++);
        eq.step();
    }
    KernelResult r;
    r.name = "micro_eventq.reschedule";
    r.hostMs = msSince(start);
    r.ops = ops;
    r.nsPerOp = r.hostMs * 1e6 / static_cast<double>(r.ops);
    return r;
}

/** Schedule a batch, deschedule every other event, run the rest. */
KernelResult
benchEventqDeschedule(unsigned iters)
{
    constexpr int batch = 256;
    std::uint64_t processed = 0;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    events.reserve(batch);
    for (int i = 0; i < batch; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&]() { ++processed; }, "bench-event"));
    }
    auto start = Clock::now();
    for (unsigned it = 0; it < iters; ++it) {
        EventQueue eq;
        // Deterministic scattered ticks (LCG) to avoid in-order bias.
        std::uint64_t state = 0x9e3779b97f4a7c15ull + it;
        for (int i = 0; i < batch; ++i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            eq.schedule(*events[i], (state >> 33) % 100000);
        }
        for (int i = 0; i < batch; i += 2)
            eq.deschedule(*events[i]);
        eq.run();
    }
    KernelResult r;
    r.name = "micro_eventq.sched_desched";
    r.hostMs = msSince(start);
    r.ops = static_cast<std::uint64_t>(iters) * batch;
    r.nsPerOp = r.hostMs * 1e6 / static_cast<double>(r.ops);
    if (processed != r.ops / 2)
        std::fprintf(stderr, "deschedule kernel miscounted!\n");
    return r;
}

// ----------------------------------------------------------------------
// micro_memctl kernel
// ----------------------------------------------------------------------

MemCtlConfig
benchMemctlConfig()
{
    MemCtlConfig cfg;
    cfg.design = DesignPoint::SCA;
    return cfg;
}

/**
 * Queue-pressure companion of BM_SimulatedWriteDrain: bursts of
 * counter-atomic writes pushed through the occupied data write queue,
 * with reads against it (the forward path) interleaved. Exercises the
 * whole accept/encrypt/land/drain pipeline, so it moves with the event
 * queue and cipher as well as with the per-entry queue lookups.
 */
KernelResult
benchMemctlWriteReadBurst(unsigned iters)
{
    constexpr unsigned writesPerBurst = 48;
    constexpr unsigned readsPerBurst = 16;
    constexpr Addr base = 0x40000;
    constexpr unsigned lineSpan = 4096; // footprint: 4096 lines

    EventQueue eq;
    NvmDevice nvm(NvmTiming::pcm(), nullptr);
    MemCtlConfig cfg = benchMemctlConfig();
    MemController ctl(eq, nvm, cfg, nullptr);

    std::uint64_t readsDone = 0;
    auto start = Clock::now();
    for (unsigned it = 0; it < iters; ++it) {
        auto lineAt = [&](std::uint64_t i) {
            std::uint64_t n =
                (static_cast<std::uint64_t>(it) * writesPerBurst + i)
                % lineSpan;
            return base + n * lineBytes;
        };
        for (unsigned i = 0; i < writesPerBurst; ++i) {
            WriteReq req;
            req.addr = lineAt(i);
            req.data = LineData{};
            req.data[0] = static_cast<std::uint8_t>(i);
            req.counterAtomic = true;
            while (!ctl.tryWrite(req))
                eq.step();
        }
        // Reads against the occupied queue: most hit a queued line
        // (forward path), the rest take the full read path.
        for (unsigned r = 0; r < readsPerBurst; ++r) {
            ctl.issueRead(lineAt(r * 3 % writesPerBurst), 0,
                          [&]() { ++readsDone; });
        }
        eq.run();
    }
    KernelResult r;
    r.name = "micro_memctl.write_read_burst";
    r.hostMs = msSince(start);
    r.ops = static_cast<std::uint64_t>(iters)
          * (writesPerBurst + readsPerBurst);
    r.nsPerOp = r.hostMs * 1e6 / static_cast<double>(r.ops);
    if (readsDone != static_cast<std::uint64_t>(iters) * readsPerBurst)
        std::fprintf(stderr, "memctl kernel lost reads!\n");
    return r;
}

// ----------------------------------------------------------------------
// Figure-style System run
// ----------------------------------------------------------------------

SystemConfig
figConfig(unsigned txns)
{
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.numCores = 1;
    cfg.wl.regionBytes = 2ull << 20;
    cfg.wl.txnTarget = txns;
    cfg.wl.batch = 1;
    cfg.wl.computePerTxn = 1000;
    cfg.wl.setupFill = 0.5;
    cfg.wl.seed = 1;
    return cfg;
}

/** One fig12-style single-core SCA run; reports the simulation rate. */
SystemResult
benchFigRun(unsigned txns)
{
    auto start = Clock::now();
    System sys(figConfig(txns));
    RunResult result = sys.run();
    SystemResult r;
    r.name = "fig12_single_core.sca_arrayswap";
    r.hostMs = msSince(start);
    r.simTicks = result.endTick;
    r.txns = result.txnsIssued;
    r.simTicksPerSec =
        static_cast<double>(r.simTicks) / (r.hostMs / 1e3);
    return r;
}

// ----------------------------------------------------------------------
// Behavior-preservation checks
// ----------------------------------------------------------------------

struct CheckResult
{
    std::string name;
    bool ok = true;
};

SystemConfig faultMatrixConfig(bool quick); // defined with the matrix

/**
 * The fork-based Execute mode must be byte-identical to the replay
 * reference, recovery must be byte-identical at any --recovery-jobs,
 * and the parallel sweep Execute phase must be byte-identical to the
 * serial loop. Per design: a byte-identical fingerprint across --mode
 * fork/replay, across --recovery-jobs values, and across --jobs
 * values.
 *
 * The checks themselves are independent per-design runs, so they fan
 * out over the pool; each closure writes only its own slot.
 */
std::vector<CheckResult>
runEquivalenceChecks(bool quick, WorkPool &pool)
{
    std::vector<std::function<CheckResult()>> probes;

    // The fork-mode gate: for every design whose crash behavior
    // differs, the fork-based Execute must reproduce the replay
    // reference fingerprint byte-for-byte, serial and pipelined alike.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        probes.push_back([d, quick]() {
            CheckResult c;
            c.name = std::string("sweep_mode_identity.") + designName(d);
            SystemConfig cfg = figConfig(quick ? 15 : 40);
            cfg.design = d;
            SweepOptions replay, fork1, fork4;
            replay.points = fork1.points = fork4.points = quick ? 6 : 12;
            fork1.mode = fork4.mode = SweepMode::Fork;
            fork1.jobs = 1;
            fork4.jobs = 4;
            std::string ref = runSweep(cfg, replay).fingerprint();
            std::string f1 = runSweep(cfg, fork1).fingerprint();
            std::string f4 = runSweep(cfg, fork4).fingerprint();
            c.ok = !ref.empty() && ref == f1 && ref == f4;
            if (!c.ok)
                std::fprintf(stderr,
                             "CHECK FAILED: %s — fork and replay sweep "
                             "fingerprints differ\n  replay:      %s\n"
                             "  fork jobs=1: %s\n  fork jobs=4: %s\n",
                             c.name.c_str(), ref.c_str(), f1.c_str(),
                             f4.c_str());
            return c;
        });
    }

    // The recovery-parallelism gate: with media faults dosed and
    // integrity MACs armed, every design's recovery must be
    // byte-identical at --recovery-jobs 1/2/8 — both the sweep
    // fingerprint (class + detected/repaired/unrecoverable accounting)
    // and the recovered digests themselves (the recovery-crash
    // reference fingerprint embeds each region's digest in hex).
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        probes.push_back([d, quick]() {
            CheckResult c;
            c.name = std::string("recovery_jobs_identity.")
                + designName(d);
            SystemConfig cfg = faultMatrixConfig(quick);
            cfg.design = d;
            cfg.memctl.integrityMac = true;

            std::string sweep_fp[3], digest_fp[3];
            const unsigned jobs_of[3] = {1, 2, 8};
            for (int pass = 0; pass < 3; ++pass) {
                SweepOptions opt;
                opt.points = quick ? 6 : 12;
                opt.mode = SweepMode::Fork;
                opt.faults = FaultSpec::allKinds(1);
                opt.recoveryJobs = jobs_of[pass];
                sweep_fp[pass] = runSweep(cfg, opt).fingerprint();

                RecoveryCrashOptions ropt;
                ropt.points = 0; // references only: digest identity
                ropt.images = quick ? 4 : 6;
                ropt.faults = FaultSpec::allKinds(1);
                ropt.recoveryJobs = jobs_of[pass];
                digest_fp[pass] =
                    runRecoveryCrashSweep(cfg, ropt).fingerprint();
            }
            c.ok = !sweep_fp[0].empty() && !digest_fp[0].empty()
                && sweep_fp[0] == sweep_fp[1]
                && sweep_fp[0] == sweep_fp[2]
                && digest_fp[0] == digest_fp[1]
                && digest_fp[0] == digest_fp[2];
            if (!c.ok)
                std::fprintf(stderr,
                             "CHECK FAILED: %s — recovery differs across "
                             "--recovery-jobs 1/2/8\n  sweep:  %s | %s | "
                             "%s\n  digest: %s | %s | %s\n",
                             c.name.c_str(), sweep_fp[0].c_str(),
                             sweep_fp[1].c_str(), sweep_fp[2].c_str(),
                             digest_fp[0].c_str(), digest_fp[1].c_str(),
                             digest_fp[2].c_str());
            return c;
        });
    }

    for (DesignPoint d : {DesignPoint::SCA, DesignPoint::Unsafe}) {
        probes.push_back([d, quick]() {
            CheckResult c;
            c.name = std::string("sweep_jobs_identity.") + designName(d);
            SystemConfig cfg = figConfig(quick ? 15 : 40);
            cfg.design = d;
            SweepOptions serial, parallel;
            serial.points = parallel.points = quick ? 6 : 12;
            serial.jobs = 1;
            parallel.jobs = 4;
            std::string fp1 = runSweep(cfg, serial).fingerprint();
            std::string fpN = runSweep(cfg, parallel).fingerprint();
            c.ok = fp1 == fpN;
            if (!c.ok)
                std::fprintf(stderr,
                             "CHECK FAILED: %s — serial and parallel "
                             "sweep fingerprints differ\n  jobs=1: %s\n"
                             "  jobs=4: %s\n",
                             c.name.c_str(), fp1.c_str(), fpN.c_str());
            return c;
        });
    }

    return pool.map<CheckResult>(
        probes.size(), [&](std::size_t i) { return probes[i](); });
}

// ----------------------------------------------------------------------
// Sweep scaling: serial vs parallel Execute-phase wall clock
// ----------------------------------------------------------------------

struct SweepScalingResult
{
    unsigned points = 0;
    unsigned jobs = 0;
    unsigned hostConcurrency = 0;
    double serialMs = 0;
    double parallelMs = 0;
    double speedup = 0;
    bool identical = false; //!< fingerprints byte-identical
};

/**
 * Times the same SCA sweep with the serial reference loop and with the
 * pooled Execute phase. The fingerprints must match byte-for-byte; the
 * wall-clock ratio is the recorded speedup. On a host with a single
 * hardware thread the ratio is expected to hover around 1.0 —
 * host_concurrency is recorded alongside so the number can be read in
 * context.
 */
SweepScalingResult
benchSweepScaling(bool quick, unsigned jobs)
{
    SweepScalingResult r;
    r.points = quick ? 8 : 24;
    r.jobs = jobs;
    r.hostConcurrency = WorkPool::hardwareJobs();

    SystemConfig cfg = figConfig(quick ? 20 : 60);
    cfg.design = DesignPoint::SCA;

    SweepOptions opt;
    opt.points = r.points;

    opt.jobs = 1;
    auto t0 = Clock::now();
    std::string fp1 = runSweep(cfg, opt).fingerprint();
    r.serialMs = msSince(t0);

    opt.jobs = jobs;
    auto t1 = Clock::now();
    std::string fpN = runSweep(cfg, opt).fingerprint();
    r.parallelMs = msSince(t1);

    r.speedup = r.parallelMs > 0 ? r.serialMs / r.parallelMs : 0;
    r.identical = fp1 == fpN;
    return r;
}

// ----------------------------------------------------------------------
// Channel scaling: simulated throughput, 1 vs N memory channels
// ----------------------------------------------------------------------

struct ChannelScalingResult
{
    unsigned cores = 0;
    unsigned channels = 0;  //!< the multi-channel point
    double txnPerSec1 = 0;  //!< simulated txn/s at 1 channel
    double txnPerSecN = 0;  //!< simulated txn/s at @ref channels
    double speedup = 0;     //!< simulated-time ratio (not host time)
    double hostMs = 0;
    bool identical = false; //!< channels=N sweep fingerprints across jobs
    bool scalesUp = false;  //!< txnPerSecN >= txnPerSec1

    bool ok() const { return identical && scalesUp; }
};

/**
 * Runs a memory-bound contended multi-core SCA workload at 1 and at
 * @p channels channels and compares *simulated* transaction throughput
 * — the speedup is architectural (more banks and busses in flight), so
 * unlike the host-side jobs-scaling ratios it is meaningful even on a
 * single-hardware-thread host. Two gates fold into checks_ok: the
 * multi-channel system must not be slower than the single-channel one
 * in simulated time, and (when @p fingerprint_check) a faulted
 * channels=N sweep must keep the byte-identical fingerprint across
 * Execute-phase jobs counts.
 */
ChannelScalingResult
benchChannelScaling(bool quick, unsigned cores, unsigned channels,
                    bool fingerprint_check)
{
    ChannelScalingResult r;
    r.cores = cores;
    r.channels = channels;

    auto start = Clock::now();
    SystemConfig cfg = figConfig(quick ? 30 : 120);
    cfg.numCores = r.cores;
    cfg.wl.computePerTxn = 0; // memory-bound: contention is the point

    auto txnRate = [&](unsigned nch) {
        SystemConfig c = cfg;
        c.numChannels = nch;
        System sys(c);
        sys.run();
        return sys.throughputTxnPerSec();
    };
    r.txnPerSec1 = txnRate(1);
    r.txnPerSecN = txnRate(r.channels);
    r.speedup = r.txnPerSec1 > 0 ? r.txnPerSecN / r.txnPerSec1 : 0;
    r.scalesUp = r.txnPerSecN >= r.txnPerSec1;

    r.identical = true;
    if (fingerprint_check) {
        SystemConfig sweep_cfg = figConfig(quick ? 15 : 40);
        sweep_cfg.numChannels = r.channels;
        SweepOptions opt;
        opt.points = quick ? 8 : 16;
        opt.faults = FaultSpec::allKinds(1);
        opt.jobs = 1;
        std::string fp1 = runSweep(sweep_cfg, opt).fingerprint();
        opt.jobs = 4;
        std::string fp4 = runSweep(sweep_cfg, opt).fingerprint();
        r.identical = fp1 == fp4;
    }

    r.hostMs = msSince(start);
    return r;
}

// ----------------------------------------------------------------------
// Fork vs replay: the algorithmic speedup of the single-pass sweep
// ----------------------------------------------------------------------

struct SweepForkSpeedupResult
{
    unsigned points = 0;
    unsigned jobs = 0;
    unsigned hostConcurrency = 0;
    double replayMs = 0;
    double forkMs = 0;
    double speedup = 0;
    bool identical = false; //!< fingerprints byte-identical
};

/**
 * Times the same SCA sweep in Replay mode (K dedicated crashed
 * simulations) and in Fork mode (one trunk run plus K off-trunk
 * recoveries), both over the same pool. Unlike the jobs-scaling ratio,
 * this speedup is algorithmic — work is removed, not just spread — so
 * it holds even on a single-hardware-thread host.
 */
SweepForkSpeedupResult
benchSweepForkSpeedup(bool quick, unsigned jobs)
{
    SweepForkSpeedupResult r;
    r.points = quick ? 12 : 32;
    r.jobs = jobs;
    r.hostConcurrency = WorkPool::hardwareJobs();

    SystemConfig cfg = figConfig(quick ? 20 : 60);
    cfg.design = DesignPoint::SCA;

    SweepOptions opt;
    opt.points = r.points;
    opt.jobs = jobs;

    opt.mode = SweepMode::Replay;
    auto t0 = Clock::now();
    std::string fpReplay = runSweep(cfg, opt).fingerprint();
    r.replayMs = msSince(t0);

    opt.mode = SweepMode::Fork;
    auto t1 = Clock::now();
    std::string fpFork = runSweep(cfg, opt).fingerprint();
    r.forkMs = msSince(t1);

    r.speedup = r.forkMs > 0 ? r.replayMs / r.forkMs : 0;
    r.identical = fpReplay == fpFork;
    return r;
}

// ----------------------------------------------------------------------
// Fault matrix: media faults × integrity metadata
// ----------------------------------------------------------------------

/** One design × integrity-mode cell of the fault-injection matrix. */
struct FaultCell
{
    DesignPoint design = DesignPoint::SCA;
    bool integrity = false;
    unsigned points = 0;
    unsigned reached = 0;
    unsigned detectedPoints = 0;
    unsigned silentPoints = 0;
    std::uint64_t faultedLines = 0;
    std::uint64_t detected = 0;
    std::uint64_t repaired = 0;
    std::uint64_t unrecoverable = 0;
    double hostMs = 0;
};

struct FaultMatrixResult
{
    std::vector<FaultCell> cells;
    unsigned pointsPerCell = 0;
    unsigned integrityReached = 0; //!< reached points, integrity armed
    unsigned integritySilent = 0;
    unsigned noIntegritySilent = 0;

    /** The headline invariant: with integrity metadata, no injected
     *  fault over the whole matrix was ever silent. */
    bool zeroSilentWithIntegrity = false;

    /** The negative control: without it, at least one fault was. */
    bool silentWithoutIntegrity = false;

    bool ok() const
    { return zeroSilentWithIntegrity && silentWithoutIntegrity; }
};

/** Small-footprint config so the per-point MAC scans stay cheap. */
SystemConfig
faultMatrixConfig(bool quick)
{
    SystemConfig cfg;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.numCores = 1;
    cfg.wl.regionBytes = 256u << 10;
    cfg.wl.txnTarget = quick ? 20 : 40;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    cfg.wl.seed = 1;
    cfg.memctl.counterCacheBytes = 16u << 10;
    return cfg;
}

/**
 * Runs the media-fault sweep over every crash-handling design, with
 * and without the per-line integrity MACs, and gates both directions:
 * the integrity-on half must contain zero silent-corruption points
 * (in the full run that is 4 designs x 60 points = 240 >= the 200 the
 * experiment plan calls for), and the integrity-off half must contain
 * at least one — proving the dose bites and bites silently when
 * unprotected.
 */
FaultMatrixResult
runFaultMatrix(bool quick, WorkPool &pool)
{
    FaultMatrixResult m;
    m.pointsPerCell = quick ? 16 : 60;
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        for (bool integrity : {true, false}) {
            auto start = Clock::now();
            SystemConfig cfg = faultMatrixConfig(quick);
            cfg.design = d;
            cfg.memctl.integrityMac = integrity;

            SweepOptions opt;
            opt.points = m.pointsPerCell;
            opt.mode = SweepMode::Fork;
            opt.faults = FaultSpec::allKinds(1);
            SweepResult r = runSweep(cfg, opt, &pool);

            FaultCell c;
            c.design = d;
            c.integrity = integrity;
            c.points = static_cast<unsigned>(r.points.size());
            c.reached = c.points - r.unreachedPoints();
            c.detectedPoints = r.detectedPoints();
            c.silentPoints = r.silentPoints();
            c.faultedLines = r.totalOf(&SweepPoint::faultedLines);
            c.detected = r.totalOf(&SweepPoint::detectedCorruptions);
            c.repaired = r.totalOf(&SweepPoint::repairedLines);
            c.unrecoverable = r.totalOf(&SweepPoint::unrecoverableLines);
            c.hostMs = msSince(start);
            if (integrity) {
                m.integrityReached += c.reached;
                m.integritySilent += c.silentPoints;
            } else {
                m.noIntegritySilent += c.silentPoints;
            }
            m.cells.push_back(c);
        }
    }
    m.zeroSilentWithIntegrity =
        m.integrityReached > 0 && m.integritySilent == 0;
    m.silentWithoutIntegrity = m.noIntegritySilent >= 1;
    return m;
}

// ----------------------------------------------------------------------
// Tree matrix: replay-dosed faults × integrity tree
// ----------------------------------------------------------------------

/** One design × tree-mode cell of the replay matrix. */
struct TreeCell
{
    DesignPoint design = DesignPoint::SCA;
    bool tree = false; //!< false = MAC-only control
    unsigned points = 0;
    unsigned reached = 0;
    unsigned silentPoints = 0;
    unsigned replayDetectedPoints = 0;
    unsigned silentReplayPoints = 0;
    std::uint64_t replayedLines = 0;
    std::uint64_t replaysCaught = 0;
    double hostMs = 0;
};

struct TreeMatrixResult
{
    std::vector<TreeCell> cells;
    unsigned pointsPerCell = 0;
    unsigned treeReached = 0;    //!< reached points, tree armed
    unsigned treeSilent = 0;     //!< silent corruption + silent replay
    std::uint64_t treeReplaysCaught = 0;
    unsigned macOnlySilentReplays = 0;

    /** The headline invariant: with the tree armed, nothing in the
     *  replay-dosed matrix was silent — no corruption, no replay —
     *  and the dose demonstrably bit (>= 1 replay caught). */
    bool zeroSilentWithTree = false;

    /** The negative control: MAC-only, at least one replayed line was
     *  consumed silently. */
    bool replaysSlipWithoutTree = false;

    bool ok() const
    { return zeroSilentWithTree && replaysSlipWithoutTree; }
};

/**
 * Runs the replay-dosed fault sweep over every crash-handling design,
 * with the counter integrity tree armed and with per-line MACs alone,
 * and gates both directions: the tree half must classify zero points
 * silent of any kind while catching at least one replay, and the
 * MAC-only half must let at least one replay through silently —
 * proving the attack defeats per-line MACs and the tree stops it.
 */
TreeMatrixResult
runTreeMatrix(bool quick, WorkPool &pool)
{
    TreeMatrixResult m;
    m.pointsPerCell = quick ? 16 : 60;
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        for (bool tree : {true, false}) {
            auto start = Clock::now();
            SystemConfig cfg = faultMatrixConfig(quick);
            cfg.design = d;
            cfg.memctl.integrityMac = true;
            cfg.memctl.integrityTree = tree;

            SweepOptions opt;
            opt.points = m.pointsPerCell;
            opt.mode = SweepMode::Fork;
            opt.faults = FaultSpec::allKindsWithReplays(1);
            SweepResult r = runSweep(cfg, opt, &pool);

            TreeCell c;
            c.design = d;
            c.tree = tree;
            c.points = static_cast<unsigned>(r.points.size());
            c.reached = c.points - r.unreachedPoints();
            c.silentPoints = r.silentPoints();
            c.replayDetectedPoints = r.replayDetectedPoints();
            c.silentReplayPoints = r.silentReplayPoints();
            c.replayedLines = r.totalOf(&SweepPoint::replayedLines);
            c.replaysCaught = r.totalOf(&SweepPoint::replaysDetected);
            c.hostMs = msSince(start);
            if (tree) {
                m.treeReached += c.reached;
                m.treeSilent += c.silentPoints + c.silentReplayPoints;
                m.treeReplaysCaught += c.replaysCaught;
            } else {
                m.macOnlySilentReplays += c.silentReplayPoints;
            }
            m.cells.push_back(c);
        }
    }
    m.zeroSilentWithTree = m.treeReached > 0 && m.treeSilent == 0
        && m.treeReplaysCaught >= 1;
    m.replaysSlipWithoutTree = m.macOnlySilentReplays >= 1;
    return m;
}

// ----------------------------------------------------------------------
// Tree overhead: lazy tree maintenance vs MAC-only runtime and traffic
// ----------------------------------------------------------------------

/** One design's tree-on vs MAC-only full-run comparison. */
struct TreeOverheadRow
{
    DesignPoint design = DesignPoint::SCA;
    std::uint64_t macTicks = 0;
    std::uint64_t treeTicks = 0;
    double macKbWritten = 0;
    double treeKbWritten = 0;
    double tickOverheadPct = 0;
    double writeOverheadPct = 0;
    std::uint64_t leafUpdates = 0;
    std::uint64_t coalesces = 0;
    std::uint64_t nodeWrites = 0;
    std::uint64_t flushes = 0;
    double hostMs = 0;
};

/**
 * Measures what the lazy epoch-batched tree write-back actually costs
 * on a full fixed-seed run: simulated runtime and NVM write traffic,
 * tree-on vs MAC-only, per design. The coalesce counter is the point
 * of the laziness — every coalesced leaf update is a tree write the
 * eager scheme would have issued.
 */
std::vector<TreeOverheadRow>
benchTreeOverhead(bool quick)
{
    std::vector<TreeOverheadRow> rows;
    for (DesignPoint d : {DesignPoint::FCA, DesignPoint::SCA}) {
        auto start = Clock::now();
        TreeOverheadRow row;
        row.design = d;
        for (bool tree : {false, true}) {
            SystemConfig cfg = figConfig(quick ? 30 : 100);
            cfg.design = d;
            cfg.memctl.integrityMac = true;
            cfg.memctl.integrityTree = tree;
            System sys(cfg);
            RunResult result = sys.run();
            if (tree) {
                row.treeTicks = result.endTick;
                row.treeKbWritten = sys.nvmBytesWritten() / 1024.0;
                const MemController &ctl = sys.controller();
                row.leafUpdates = static_cast<std::uint64_t>(
                    ctl.treeLeafUpdates.value());
                row.coalesces = static_cast<std::uint64_t>(
                    ctl.treeCoalesces.value());
                row.nodeWrites = static_cast<std::uint64_t>(
                    ctl.treeNodeWrites.value());
                row.flushes = static_cast<std::uint64_t>(
                    ctl.treeFlushes.value());
            } else {
                row.macTicks = result.endTick;
                row.macKbWritten = sys.nvmBytesWritten() / 1024.0;
            }
        }
        row.tickOverheadPct = row.macTicks > 0
            ? 100.0 * (static_cast<double>(row.treeTicks)
                       / static_cast<double>(row.macTicks) - 1.0)
            : 0;
        row.writeOverheadPct = row.macKbWritten > 0
            ? 100.0 * (row.treeKbWritten / row.macKbWritten - 1.0)
            : 0;
        row.hostMs = msSince(start);
        rows.push_back(row);
    }
    return rows;
}

// ----------------------------------------------------------------------
// Recovery scaling: crash-to-fully-recovered wall clock vs region size
// ----------------------------------------------------------------------

/** One region size's serial-vs-parallel recovery timing. */
struct RecoveryScalingRow
{
    unsigned regionKb = 0;
    double serialMs = 0;
    double parallelMs = 0;
    double speedup = 0;
    bool identical = false; //!< reports byte-identical across jobs
};

struct RecoveryScalingResult
{
    std::vector<RecoveryScalingRow> rows;
    unsigned jobs = 0;
    unsigned hostConcurrency = 0;

    bool
    allIdentical() const
    {
        bool ok = !rows.empty();
        for (const RecoveryScalingRow &r : rows)
            ok = ok && r.identical;
        return ok;
    }
};

/**
 * Times crash-to-fully-recovered for growing region sizes, serial vs
 * pooled pre-scan. With integrity MACs armed the recovery cost is
 * dominated by the per-line verify pass over the whole region, which
 * is exactly what RecoveryOptions::jobs shards — so the speedup grows
 * with the region while the reports stay byte-identical.
 */
RecoveryScalingResult
benchRecoveryScaling(bool quick, unsigned jobs)
{
    RecoveryScalingResult result;
    result.jobs = jobs;
    result.hostConcurrency = WorkPool::hardwareJobs();

    std::vector<unsigned> sizesKb =
        quick ? std::vector<unsigned>{256, 1024}
              : std::vector<unsigned>{512, 2048, 8192};
    for (unsigned kb : sizesKb) {
        SystemConfig cfg;
        cfg.design = DesignPoint::SCA;
        cfg.workload = WorkloadKind::ArraySwap;
        cfg.numCores = 1;
        cfg.wl.regionBytes = static_cast<std::uint64_t>(kb) << 10;
        cfg.wl.txnTarget = quick ? 20 : 40;
        cfg.wl.computePerTxn = 100;
        cfg.wl.setupFill = 0.5;
        cfg.wl.seed = 1;
        cfg.memctl.integrityMac = true;

        System probe(cfg);
        Tick total = probe.run().endTick;

        System sys(cfg);
        sys.runWithCrashAt(std::max<Tick>(total / 2, 1));

        auto t0 = Clock::now();
        std::vector<RecoveryReport> serial = sys.recoverAll(1);
        double serial_ms = msSince(t0);

        auto t1 = Clock::now();
        std::vector<RecoveryReport> parallel = sys.recoverAll(jobs);
        double parallel_ms = msSince(t1);

        RecoveryScalingRow row;
        row.regionKb = kb;
        row.serialMs = serial_ms;
        row.parallelMs = parallel_ms;
        row.speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0;
        row.identical = serial.size() == parallel.size();
        for (std::size_t c = 0; row.identical && c < serial.size(); ++c) {
            const RecoveryReport &a = serial[c], &b = parallel[c];
            row.identical = convergenceOf(a) == convergenceOf(b)
                && a.rolledBack == b.rolledBack
                && a.detectedCorruptions == b.detectedCorruptions
                && a.repairedLines == b.repairedLines;
        }
        result.rows.push_back(row);
    }
    return result;
}

// ----------------------------------------------------------------------
// Crash-during-recovery: the idempotence sweep, gated per design
// ----------------------------------------------------------------------

/** One design's crash-during-recovery sweep outcome. */
struct RecrashCell
{
    DesignPoint design = DesignPoint::SCA;
    unsigned images = 0;
    unsigned points = 0;
    unsigned fired = 0;
    unsigned divergent = 0;
    double hostMs = 0;
};

struct RecrashResult
{
    std::vector<RecrashCell> cells;
    unsigned pointsPerDesign = 0;

    /** The gate: every design ran points, interrupted at least one
     *  attempt for real, and saw zero divergence from its reference. */
    bool
    ok() const
    {
        bool good = !cells.empty();
        for (const RecrashCell &c : cells)
            good = good && c.points > 0 && c.fired > 0
                && c.divergent == 0;
        return good;
    }
};

/**
 * Runs the crash-during-recovery sweep (fault-dosed, integrity MACs
 * armed, parallel pre-scan) over every crash-handling design and gates
 * the idempotence invariant: interrupted-and-rerun recovery must
 * converge to the uninterrupted reference at every planned point. The
 * full run is 4 designs x 40 interruption points.
 */
RecrashResult
runRecrashSweeps(bool quick, WorkPool &pool)
{
    RecrashResult result;
    result.pointsPerDesign = quick ? 10 : 40;
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        auto start = Clock::now();
        SystemConfig cfg = faultMatrixConfig(quick);
        cfg.design = d;
        cfg.memctl.integrityMac = true;

        RecoveryCrashOptions opt;
        opt.points = result.pointsPerDesign;
        opt.images = quick ? 6 : 10;
        opt.recoveryJobs = 2;
        opt.faults = FaultSpec::allKinds(1);
        RecoveryCrashResult r = runRecoveryCrashSweep(cfg, opt, &pool);

        RecrashCell c;
        c.design = d;
        c.images = r.images;
        c.points = static_cast<unsigned>(r.points.size());
        c.fired = r.firedPoints();
        c.divergent = r.divergentPoints();
        c.hostMs = msSince(start);
        result.cells.push_back(c);
    }
    return result;
}

// ----------------------------------------------------------------------
// Soak matrix: crash→recover→resume chains with cumulative dosing
// ----------------------------------------------------------------------

/** One design's fault-dosed soak chain (integrity tree armed). */
struct SoakCell
{
    DesignPoint design = DesignPoint::SCA;
    unsigned cycles = 0;   //!< executed cycles incl. final examination
    unsigned crashed = 0;
    unsigned dosed = 0;
    unsigned resets = 0;
    unsigned silent = 0;
    std::uint64_t detected = 0;
    std::uint64_t replaysDetected = 0;
    std::uint64_t finalQuarantined = 0;
    bool ok = false;
    double hostMs = 0;
};

struct SoakMatrixResult
{
    std::vector<SoakCell> cells;
    unsigned cyclesPerChain = 0;
    unsigned totalCycles = 0;
    unsigned totalSilent = 0;

    /** The clean-chain identity control: a zero-fault SCA chain ends
     *  at the committed count and recovered-content digest of an
     *  uninterrupted run of the same target. */
    bool cleanIdentity = false;

    /** The headline soak gate: every fault-dosed chain completed with
     *  every cumulative invariant held and zero silent cycles. */
    bool
    zeroSilentCumulative() const
    {
        bool good = !cells.empty() && totalSilent == 0;
        for (const SoakCell &c : cells)
            good = good && c.ok && c.dosed > 0;
        return good;
    }

    bool ok() const { return zeroSilentCumulative() && cleanIdentity; }
};

/**
 * Runs one fault-and-replay-dosed soak chain per crash-handling design
 * with the full integrity stack armed — in the full run that is
 * 4 designs x 27 cycles = 108 >= the 100 crash→recover→resume cycles
 * the experiment plan calls for — and gates on zero silent cycles with
 * every cumulative SoakOracle invariant held. A fifth, zero-fault SCA
 * chain is the identity control: its final image must carry exactly
 * the committed-transaction count and recovered-content digest of an
 * uninterrupted run to the same target.
 */
SoakMatrixResult
runSoakMatrix(bool quick, WorkPool &pool)
{
    SoakMatrixResult m;
    m.cyclesPerChain = quick ? 6 : 26;

    const DesignPoint designs[] = {DesignPoint::ColocatedCC,
                                   DesignPoint::FCA, DesignPoint::SCA,
                                   DesignPoint::Unsafe};
    m.cells = pool.map<SoakCell>(4, [&](std::size_t i) {
        auto start = Clock::now();
        SystemConfig cfg = faultMatrixConfig(quick);
        cfg.design = designs[i];
        cfg.memctl.integrityMac = true;
        cfg.memctl.integrityTree = true;

        SoakOptions opt;
        opt.cycles = m.cyclesPerChain;
        opt.faults = FaultSpec::allKindsWithReplays(1);
        SoakChainResult chain = runSoakChain(cfg, opt);

        SoakCell c;
        c.design = designs[i];
        c.cycles = static_cast<unsigned>(chain.cycles.size());
        c.crashed = chain.crashedCycles();
        c.dosed = chain.dosedCycles();
        c.resets = chain.totalResets();
        c.silent = chain.silentCycles();
        c.finalQuarantined = chain.finalQuarantined;
        for (const SoakCycle &cy : chain.cycles) {
            c.detected += cy.detectedCorruptions;
            c.replaysDetected += cy.replaysDetected;
        }
        c.ok = chain.ok;
        if (!chain.ok)
            std::fprintf(stderr, "soak matrix %s FAILED: %s\n",
                         designName(designs[i]), chain.failure.c_str());
        c.hostMs = msSince(start);
        return c;
    });
    for (const SoakCell &c : m.cells) {
        m.totalCycles += c.cycles;
        m.totalSilent += c.silent;
    }

    // The identity control (integrity MACs stay armed so the design
    // set could include Unsafe; SCA keeps it cheap).
    SystemConfig cfg = faultMatrixConfig(quick);
    cfg.design = DesignPoint::SCA;
    cfg.memctl.integrityMac = true;
    SoakOptions clean;
    clean.cycles = quick ? 3 : 6;
    SoakChainResult chain = runSoakChain(cfg, clean);
    m.cleanIdentity = chain.ok && chain.totalResets() == 0
        && chain.finalQuarantined == 0;
    if (m.cleanIdentity) {
        cfg.wl.txnTarget = chain.finalTxnTarget;
        System control(cfg);
        control.run();
        control.crashChannels();
        std::vector<RecoveryReport> reports = control.recoverAll();
        std::uint64_t digest = 0;
        bool consistent = true;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            consistent = consistent && reports[i].consistent
                && reports[i].committedTxns == chain.finalTxnTarget;
            digest = fnv1aU64(reports[i].recoveredDigest,
                              i == 0 ? fnvOffsetBasis : digest);
        }
        m.cleanIdentity = consistent && digest == chain.finalDigest;
    }
    if (!m.cleanIdentity)
        std::fprintf(stderr, "soak matrix clean-chain identity control "
                             "FAILED\n");
    return m;
}

// ----------------------------------------------------------------------
// Soak scaling: chain fan-out wall clock, fingerprint identity gate
// ----------------------------------------------------------------------

struct SoakScalingResult
{
    unsigned chains = 0;
    unsigned cycles = 0;
    unsigned jobs = 0;
    unsigned hostConcurrency = 0;
    double serialMs = 0;
    double parallelMs = 0;
    double speedup = 0;
    bool identical = false; //!< fleet fingerprints byte-identical
};

/**
 * Times the same fault-dosed soak fleet at jobs=1 and jobs=N and
 * requires the fleet fingerprint — every cycle's spec, classification
 * and final digest of every chain — to be byte-identical. Chains are
 * seed-deterministic and independent, so fan-out must not change a
 * single verdict.
 */
SoakScalingResult
benchSoakScaling(bool quick, unsigned jobs)
{
    SoakScalingResult r;
    r.chains = 4;
    r.cycles = quick ? 4 : 8;
    r.jobs = jobs;
    r.hostConcurrency = WorkPool::hardwareJobs();

    SystemConfig cfg = faultMatrixConfig(quick);
    cfg.design = DesignPoint::SCA;
    cfg.memctl.integrityMac = true;

    SoakOptions opt;
    opt.cycles = r.cycles;
    opt.chains = r.chains;
    opt.faults = FaultSpec::allKinds(1);

    opt.jobs = 1;
    auto t0 = Clock::now();
    std::string fp1 = runSoak(cfg, opt).fingerprint();
    r.serialMs = msSince(t0);

    opt.jobs = jobs;
    auto t1 = Clock::now();
    std::string fpN = runSoak(cfg, opt).fingerprint();
    r.parallelMs = msSince(t1);

    r.speedup = r.parallelMs > 0 ? r.serialMs / r.parallelMs : 0;
    r.identical = !fp1.empty() && fp1 == fpN;
    return r;
}

// ----------------------------------------------------------------------
// Repetition: the host is shared and noisy, so each kernel runs
// --repeat times and the fastest run is kept (noise only adds time).
// ----------------------------------------------------------------------

template <typename Fn>
KernelResult
bestKernel(unsigned repeat, Fn fn)
{
    KernelResult best = fn();
    for (unsigned i = 1; i < repeat; ++i) {
        KernelResult r = fn();
        if (r.nsPerOp < best.nsPerOp)
            best = r;
    }
    return best;
}

template <typename Fn>
SystemResult
bestSystem(unsigned repeat, Fn fn)
{
    SystemResult best = fn();
    for (unsigned i = 1; i < repeat; ++i) {
        SystemResult r = fn();
        if (r.simTicksPerSec > best.simTicksPerSec)
            best = r;
    }
    return best;
}

// ----------------------------------------------------------------------
// JSON emission
// ----------------------------------------------------------------------

void
emitJson(std::ostream &os, const std::vector<KernelResult> &kernels,
         const std::vector<SystemResult> &systems, bool quick,
         const std::string &baseline_json,
         const std::vector<CheckResult> &checks, bool checks_ok,
         const SweepScalingResult &scaling,
         const SweepForkSpeedupResult &fork_speedup,
         const ChannelScalingResult &chscaling,
         const ChannelScalingResult &chscaling16,
         const FaultMatrixResult &faults,
         const TreeMatrixResult &tree,
         const std::vector<TreeOverheadRow> &tree_overhead,
         const RecoveryScalingResult &rscaling,
         const RecrashResult &recrash,
         const SoakMatrixResult &soak,
         const SoakScalingResult &soak_scaling)
{
    char buf[256];
    os << "{\n";
    os << "  \"bench\": \"cnvm_bench\",\n";
    os << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
    os << "  \"checks_ok\": " << (checks_ok ? "true" : "false") << ",\n";
    os << "  \"fault_matrix\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"points_per_cell\": %u, "
                  "\"integrity_reached_points\": %u,\n"
                  "    \"zero_silent_with_integrity\": %s, "
                  "\"silent_points_without_integrity\": %u,\n",
                  faults.pointsPerCell, faults.integrityReached,
                  faults.zeroSilentWithIntegrity ? "true" : "false",
                  faults.noIntegritySilent);
    os << buf;
    os << "    \"cells\": [\n";
    for (std::size_t i = 0; i < faults.cells.size(); ++i) {
        const FaultCell &c = faults.cells[i];
        std::snprintf(buf, sizeof(buf),
                      "      {\"design\": \"%s\", \"integrity\": %s, "
                      "\"reached\": %u, \"detected_points\": %u, "
                      "\"silent_points\": %u, \"faulted_lines\": %llu, "
                      "\"detected\": %llu, \"repaired\": %llu, "
                      "\"unrecoverable\": %llu, \"host_ms\": %.2f}%s\n",
                      designName(c.design),
                      c.integrity ? "true" : "false", c.reached,
                      c.detectedPoints, c.silentPoints,
                      static_cast<unsigned long long>(c.faultedLines),
                      static_cast<unsigned long long>(c.detected),
                      static_cast<unsigned long long>(c.repaired),
                      static_cast<unsigned long long>(c.unrecoverable),
                      c.hostMs,
                      i + 1 < faults.cells.size() ? "," : "");
        os << buf;
    }
    os << "    ]\n  },\n";
    os << "  \"tree_matrix\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"points_per_cell\": %u, "
                  "\"tree_reached_points\": %u,\n"
                  "    \"zero_silent_with_tree\": %s, "
                  "\"tree_replays_caught\": %llu,\n"
                  "    \"mac_only_silent_replay_points\": %u, "
                  "\"replays_slip_without_tree\": %s,\n",
                  tree.pointsPerCell, tree.treeReached,
                  tree.zeroSilentWithTree ? "true" : "false",
                  static_cast<unsigned long long>(tree.treeReplaysCaught),
                  tree.macOnlySilentReplays,
                  tree.replaysSlipWithoutTree ? "true" : "false");
    os << buf;
    os << "    \"cells\": [\n";
    for (std::size_t i = 0; i < tree.cells.size(); ++i) {
        const TreeCell &c = tree.cells[i];
        std::snprintf(buf, sizeof(buf),
                      "      {\"design\": \"%s\", \"tree\": %s, "
                      "\"reached\": %u, \"silent_points\": %u, "
                      "\"replay_detected_points\": %u, "
                      "\"silent_replay_points\": %u, "
                      "\"replayed_lines\": %llu, "
                      "\"replays_caught\": %llu, "
                      "\"host_ms\": %.2f}%s\n",
                      designName(c.design), c.tree ? "true" : "false",
                      c.reached, c.silentPoints, c.replayDetectedPoints,
                      c.silentReplayPoints,
                      static_cast<unsigned long long>(c.replayedLines),
                      static_cast<unsigned long long>(c.replaysCaught),
                      c.hostMs, i + 1 < tree.cells.size() ? "," : "");
        os << buf;
    }
    os << "    ]\n  },\n";
    os << "  \"tree_overhead\": [\n";
    for (std::size_t i = 0; i < tree_overhead.size(); ++i) {
        const TreeOverheadRow &r = tree_overhead[i];
        std::snprintf(buf, sizeof(buf),
                      "    {\"design\": \"%s\", \"mac_ticks\": %llu, "
                      "\"tree_ticks\": %llu, \"tick_overhead_pct\": %.2f,\n"
                      "     \"mac_kb_written\": %.1f, "
                      "\"tree_kb_written\": %.1f, "
                      "\"write_overhead_pct\": %.2f,\n",
                      designName(r.design),
                      static_cast<unsigned long long>(r.macTicks),
                      static_cast<unsigned long long>(r.treeTicks),
                      r.tickOverheadPct, r.macKbWritten, r.treeKbWritten,
                      r.writeOverheadPct);
        os << buf;
        std::snprintf(buf, sizeof(buf),
                      "     \"leaf_updates\": %llu, \"coalesces\": %llu, "
                      "\"node_writes\": %llu, \"flushes\": %llu, "
                      "\"host_ms\": %.2f}%s\n",
                      static_cast<unsigned long long>(r.leafUpdates),
                      static_cast<unsigned long long>(r.coalesces),
                      static_cast<unsigned long long>(r.nodeWrites),
                      static_cast<unsigned long long>(r.flushes),
                      r.hostMs,
                      i + 1 < tree_overhead.size() ? "," : "");
        os << buf;
    }
    os << "  ],\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"recovery_scaling\": {\"jobs\": %u, "
                  "\"host_concurrency\": %u, \"reports_identical\": %s,\n"
                  "    \"rows\": [\n",
                  rscaling.jobs, rscaling.hostConcurrency,
                  rscaling.allIdentical() ? "true" : "false");
    os << buf;
    for (std::size_t i = 0; i < rscaling.rows.size(); ++i) {
        const RecoveryScalingRow &r = rscaling.rows[i];
        std::snprintf(buf, sizeof(buf),
                      "      {\"region_kb\": %u, \"serial_ms\": %.2f, "
                      "\"parallel_ms\": %.2f, \"speedup\": %.2f, "
                      "\"identical\": %s}%s\n",
                      r.regionKb, r.serialMs, r.parallelMs, r.speedup,
                      r.identical ? "true" : "false",
                      i + 1 < rscaling.rows.size() ? "," : "");
        os << buf;
    }
    os << "    ]\n  },\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"recovery_recrash\": {\"points_per_design\": %u, "
                  "\"ok\": %s,\n    \"cells\": [\n",
                  recrash.pointsPerDesign,
                  recrash.ok() ? "true" : "false");
    os << buf;
    for (std::size_t i = 0; i < recrash.cells.size(); ++i) {
        const RecrashCell &c = recrash.cells[i];
        std::snprintf(buf, sizeof(buf),
                      "      {\"design\": \"%s\", \"images\": %u, "
                      "\"points\": %u, \"fired\": %u, \"divergent\": %u, "
                      "\"host_ms\": %.2f}%s\n",
                      designName(c.design), c.images, c.points, c.fired,
                      c.divergent, c.hostMs,
                      i + 1 < recrash.cells.size() ? "," : "");
        os << buf;
    }
    os << "    ]\n  },\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"soak_matrix\": {\"cycles_per_chain\": %u, "
                  "\"total_cycles\": %u, \"total_silent\": %u,\n"
                  "    \"zero_silent_cumulative\": %s, "
                  "\"clean_chain_identity\": %s,\n    \"cells\": [\n",
                  soak.cyclesPerChain, soak.totalCycles,
                  soak.totalSilent,
                  soak.zeroSilentCumulative() ? "true" : "false",
                  soak.cleanIdentity ? "true" : "false");
    os << buf;
    for (std::size_t i = 0; i < soak.cells.size(); ++i) {
        const SoakCell &c = soak.cells[i];
        std::snprintf(buf, sizeof(buf),
                      "      {\"design\": \"%s\", \"cycles\": %u, "
                      "\"crashed\": %u, \"dosed\": %u, \"resets\": %u, "
                      "\"silent\": %u, \"detected\": %llu, "
                      "\"replays_detected\": %llu, "
                      "\"final_quarantined\": %llu, \"ok\": %s, "
                      "\"host_ms\": %.2f}%s\n",
                      designName(c.design), c.cycles, c.crashed,
                      c.dosed, c.resets, c.silent,
                      static_cast<unsigned long long>(c.detected),
                      static_cast<unsigned long long>(c.replaysDetected),
                      static_cast<unsigned long long>(
                          c.finalQuarantined),
                      c.ok ? "true" : "false", c.hostMs,
                      i + 1 < soak.cells.size() ? "," : "");
        os << buf;
    }
    os << "    ]\n  },\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"soak_scaling\": {\"chains\": %u, \"cycles\": %u, "
                  "\"jobs\": %u, \"host_concurrency\": %u, "
                  "\"serial_ms\": %.2f, \"parallel_ms\": %.2f, "
                  "\"speedup\": %.2f, \"fingerprints_identical\": %s},\n",
                  soak_scaling.chains, soak_scaling.cycles,
                  soak_scaling.jobs, soak_scaling.hostConcurrency,
                  soak_scaling.serialMs, soak_scaling.parallelMs,
                  soak_scaling.speedup,
                  soak_scaling.identical ? "true" : "false");
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"sweep_scaling\": {\"points\": %u, \"jobs\": %u, "
                  "\"host_concurrency\": %u, \"serial_ms\": %.2f, "
                  "\"parallel_ms\": %.2f, \"speedup\": %.2f, "
                  "\"fingerprints_identical\": %s},\n",
                  scaling.points, scaling.jobs, scaling.hostConcurrency,
                  scaling.serialMs, scaling.parallelMs, scaling.speedup,
                  scaling.identical ? "true" : "false");
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"sweep_fork_speedup\": {\"points\": %u, \"jobs\": %u, "
                  "\"host_concurrency\": %u, \"replay_ms\": %.2f, "
                  "\"fork_ms\": %.2f, \"speedup\": %.2f, "
                  "\"fingerprints_identical\": %s},\n",
                  fork_speedup.points, fork_speedup.jobs,
                  fork_speedup.hostConcurrency, fork_speedup.replayMs,
                  fork_speedup.forkMs, fork_speedup.speedup,
                  fork_speedup.identical ? "true" : "false");
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"channel_scaling\": {\"cores\": %u, "
                  "\"channels\": %u, \"txn_per_sec_1ch\": %.0f, "
                  "\"txn_per_sec_%uch\": %.0f, \"sim_speedup\": %.2f,\n"
                  "    \"scales_up\": %s, "
                  "\"fingerprints_identical\": %s, "
                  "\"host_ms\": %.2f},\n",
                  chscaling.cores, chscaling.channels,
                  chscaling.txnPerSec1, chscaling.channels,
                  chscaling.txnPerSecN, chscaling.speedup,
                  chscaling.scalesUp ? "true" : "false",
                  chscaling.identical ? "true" : "false",
                  chscaling.hostMs);
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"channel_scaling_16c\": {\"cores\": %u, "
                  "\"channels\": %u, \"txn_per_sec_1ch\": %.0f, "
                  "\"txn_per_sec_%uch\": %.0f, \"sim_speedup\": %.2f,\n"
                  "    \"scales_up\": %s, \"host_ms\": %.2f},\n",
                  chscaling16.cores, chscaling16.channels,
                  chscaling16.txnPerSec1, chscaling16.channels,
                  chscaling16.txnPerSecN, chscaling16.speedup,
                  chscaling16.scalesUp ? "true" : "false",
                  chscaling16.hostMs);
    os << buf;
    os << "  \"checks\": {";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        os << "\"" << checks[i].name << "\": "
           << (checks[i].ok ? "true" : "false")
           << (i + 1 < checks.size() ? ", " : "");
    }
    os << "},\n";
    os << "  \"kernels\": {\n";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const KernelResult &k = kernels[i];
        std::snprintf(buf, sizeof(buf),
                      "    \"%s\": {\"ns_per_op\": %.2f, \"ops\": %llu, "
                      "\"host_ms\": %.2f}%s\n",
                      k.name.c_str(), k.nsPerOp,
                      static_cast<unsigned long long>(k.ops), k.hostMs,
                      i + 1 < kernels.size() ? "," : "");
        os << buf;
    }
    os << "  },\n";
    os << "  \"systems\": {\n";
    for (std::size_t i = 0; i < systems.size(); ++i) {
        const SystemResult &s = systems[i];
        std::snprintf(buf, sizeof(buf),
                      "    \"%s\": {\"sim_ticks_per_sec\": %.0f, "
                      "\"sim_ticks\": %llu, \"txns\": %llu, "
                      "\"host_ms\": %.2f}%s\n",
                      s.name.c_str(), s.simTicksPerSec,
                      static_cast<unsigned long long>(s.simTicks),
                      static_cast<unsigned long long>(s.txns), s.hostMs,
                      i + 1 < systems.size() ? "," : "");
        os << buf;
    }
    os << "  }";
    if (!baseline_json.empty())
        os << ",\n  \"baseline\": " << baseline_json;
    os << "\n}\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    std::string baseline_path;
    bool quick = false;
    unsigned repeat = 3;
    unsigned jobs = 0; // 0 = hardware concurrency

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need_value = [&]() -> const char * {
            return toolargs::needValue(argc, argv, i, usage);
        };
        if (arg == "--out") {
            out_path = need_value();
        } else if (arg == "--baseline") {
            baseline_path = need_value();
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--repeat") {
            repeat = toolargs::parsePositive("--repeat", need_value(),
                                            usage);
        } else if (arg == "--jobs") {
            jobs = toolargs::parsePositive("--jobs", need_value(), usage);
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(2);
        }
    }

    std::string baseline_json;
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::fprintf(stderr, "cannot read baseline '%s'\n",
                         baseline_path.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        baseline_json = ss.str();
        // Strip the trailing newline so the embedding stays tidy.
        while (!baseline_json.empty()
               && (baseline_json.back() == '\n'
                   || baseline_json.back() == '\r'))
            baseline_json.pop_back();
    }

    // The timed kernels and System runs stay serial — they measure
    // host-side speed and concurrent timing would only add noise. The
    // pool runs the untimed per-design equivalence checks.
    WorkPool pool(jobs);

    std::vector<KernelResult> kernels;
    kernels.push_back(bestKernel(repeat, [&]() {
        return benchEventqScheduleProcess(quick ? 200 : 2000); }));
    kernels.push_back(bestKernel(repeat, [&]() {
        return benchEventqReschedule(quick ? 100000 : 2000000); }));
    kernels.push_back(bestKernel(repeat, [&]() {
        return benchEventqDeschedule(quick ? 200 : 2000); }));
    kernels.push_back(bestKernel(repeat, [&]() {
        return benchMemctlWriteReadBurst(quick ? 100 : 1000); }));

    std::vector<SystemResult> systems;
    systems.push_back(bestSystem(repeat, [&]() {
        return benchFigRun(quick ? 40 : 200); }));

    std::vector<CheckResult> checks = runEquivalenceChecks(quick, pool);
    bool checks_ok = true;
    for (const CheckResult &c : checks) {
        checks_ok = checks_ok && c.ok;
        std::printf("check %-32s %s\n", c.name.c_str(),
                    c.ok ? "ok" : "FAILED");
    }

    SweepScalingResult scaling = benchSweepScaling(quick, 4);
    checks_ok = checks_ok && scaling.identical;
    std::printf("sweep scaling: %u points, serial %.1f ms, "
                "jobs=%u %.1f ms (%.2fx, host concurrency %u, "
                "fingerprints %s)\n",
                scaling.points, scaling.serialMs, scaling.jobs,
                scaling.parallelMs, scaling.speedup,
                scaling.hostConcurrency,
                scaling.identical ? "identical" : "DIFFER");

    SweepForkSpeedupResult fork_speedup = benchSweepForkSpeedup(quick, 4);
    checks_ok = checks_ok && fork_speedup.identical;
    std::printf("sweep fork speedup: %u points, replay %.1f ms, "
                "fork %.1f ms (%.2fx, jobs=%u, host concurrency %u, "
                "fingerprints %s)\n",
                fork_speedup.points, fork_speedup.replayMs,
                fork_speedup.forkMs, fork_speedup.speedup,
                fork_speedup.jobs, fork_speedup.hostConcurrency,
                fork_speedup.identical ? "identical" : "DIFFER");

    ChannelScalingResult chscaling = benchChannelScaling(quick, 4, 4,
                                                         true);
    checks_ok = checks_ok && chscaling.ok();
    std::printf("channel scaling: %u cores, %.0f txn/s at 1 channel, "
                "%.0f txn/s at %u channels (%.2fx simulated, "
                "fingerprints %s)\n",
                chscaling.cores, chscaling.txnPerSec1,
                chscaling.txnPerSecN, chscaling.channels,
                chscaling.speedup,
                chscaling.identical ? "identical" : "DIFFER");

    ChannelScalingResult chscaling16 = benchChannelScaling(quick, 16, 8,
                                                           false);
    checks_ok = checks_ok && chscaling16.ok();
    std::printf("channel scaling: %u cores, %.0f txn/s at 1 channel, "
                "%.0f txn/s at %u channels (%.2fx simulated)\n",
                chscaling16.cores, chscaling16.txnPerSec1,
                chscaling16.txnPerSecN, chscaling16.channels,
                chscaling16.speedup);

    RecoveryScalingResult rscaling = benchRecoveryScaling(quick, 4);
    checks_ok = checks_ok && rscaling.allIdentical();
    for (const RecoveryScalingRow &r : rscaling.rows)
        std::printf("recovery scaling: %5u KB region, serial %.1f ms, "
                    "jobs=%u %.1f ms (%.2fx, host concurrency %u, "
                    "reports %s)\n",
                    r.regionKb, r.serialMs, rscaling.jobs, r.parallelMs,
                    r.speedup, rscaling.hostConcurrency,
                    r.identical ? "identical" : "DIFFER");

    RecrashResult recrash = runRecrashSweeps(quick, pool);
    checks_ok = checks_ok && recrash.ok();
    for (const RecrashCell &c : recrash.cells)
        std::printf("recovery recrash %-13s images=%u points=%u "
                    "fired=%u divergent=%u (%.1f ms) %s\n",
                    designName(c.design), c.images, c.points, c.fired,
                    c.divergent, c.hostMs,
                    c.points > 0 && c.fired > 0 && c.divergent == 0
                        ? "ok" : "FAILED");

    FaultMatrixResult fault_matrix = runFaultMatrix(quick, pool);
    checks_ok = checks_ok && fault_matrix.ok();
    for (const FaultCell &c : fault_matrix.cells)
        std::printf("fault matrix %-13s integrity=%-3s reached=%u "
                    "detected-pts=%u silent-pts=%u repaired=%llu "
                    "unrecoverable=%llu (%.1f ms)\n",
                    designName(c.design), c.integrity ? "on" : "off",
                    c.reached, c.detectedPoints, c.silentPoints,
                    static_cast<unsigned long long>(c.repaired),
                    static_cast<unsigned long long>(c.unrecoverable),
                    c.hostMs);
    std::printf("fault matrix: %u integrity-armed points, silent with "
                "integrity: %u (%s), silent without: %u (%s)\n",
                fault_matrix.integrityReached,
                fault_matrix.integritySilent,
                fault_matrix.zeroSilentWithIntegrity ? "ok" : "FAILED",
                fault_matrix.noIntegritySilent,
                fault_matrix.silentWithoutIntegrity ? "ok" : "FAILED");

    TreeMatrixResult tree_matrix = runTreeMatrix(quick, pool);
    checks_ok = checks_ok && tree_matrix.ok();
    for (const TreeCell &c : tree_matrix.cells)
        std::printf("tree matrix %-13s tree=%-3s reached=%u "
                    "silent-pts=%u rp-det-pts=%u rp-sil-pts=%u "
                    "replayed=%llu caught=%llu (%.1f ms)\n",
                    designName(c.design), c.tree ? "on" : "off",
                    c.reached, c.silentPoints, c.replayDetectedPoints,
                    c.silentReplayPoints,
                    static_cast<unsigned long long>(c.replayedLines),
                    static_cast<unsigned long long>(c.replaysCaught),
                    c.hostMs);
    std::printf("tree matrix: %u tree-armed points, silent with tree: "
                "%u, replays caught: %llu (%s), silent replays "
                "mac-only: %u (%s)\n",
                tree_matrix.treeReached, tree_matrix.treeSilent,
                static_cast<unsigned long long>(
                    tree_matrix.treeReplaysCaught),
                tree_matrix.zeroSilentWithTree ? "ok" : "FAILED",
                tree_matrix.macOnlySilentReplays,
                tree_matrix.replaysSlipWithoutTree ? "ok" : "FAILED");

    SoakMatrixResult soak_matrix = runSoakMatrix(quick, pool);
    checks_ok = checks_ok && soak_matrix.ok();
    for (const SoakCell &c : soak_matrix.cells)
        std::printf("soak matrix %-13s cycles=%u crashed=%u dosed=%u "
                    "resets=%u silent=%u detected=%llu rp-det=%llu "
                    "final-q=%llu (%.1f ms) %s\n",
                    designName(c.design), c.cycles, c.crashed, c.dosed,
                    c.resets, c.silent,
                    static_cast<unsigned long long>(c.detected),
                    static_cast<unsigned long long>(c.replaysDetected),
                    static_cast<unsigned long long>(c.finalQuarantined),
                    c.hostMs, c.ok ? "ok" : "FAILED");
    std::printf("soak matrix: %u cycles total, silent: %u (%s), "
                "clean-chain identity: %s\n",
                soak_matrix.totalCycles, soak_matrix.totalSilent,
                soak_matrix.zeroSilentCumulative() ? "ok" : "FAILED",
                soak_matrix.cleanIdentity ? "ok" : "FAILED");

    SoakScalingResult soak_scaling = benchSoakScaling(quick, 4);
    checks_ok = checks_ok && soak_scaling.identical;
    std::printf("soak scaling: %u chains x %u cycles, serial %.1f ms, "
                "jobs=%u %.1f ms (%.2fx, host concurrency %u, "
                "fingerprints %s)\n",
                soak_scaling.chains, soak_scaling.cycles,
                soak_scaling.serialMs, soak_scaling.jobs,
                soak_scaling.parallelMs, soak_scaling.speedup,
                soak_scaling.hostConcurrency,
                soak_scaling.identical ? "identical" : "DIFFER");

    std::vector<TreeOverheadRow> tree_overhead = benchTreeOverhead(quick);
    for (const TreeOverheadRow &r : tree_overhead)
        std::printf("tree overhead %-13s ticks +%.2f%% writes +%.2f%% "
                    "(leaf=%llu coalesced=%llu node-writes=%llu "
                    "flushes=%llu, %.1f ms)\n",
                    designName(r.design), r.tickOverheadPct,
                    r.writeOverheadPct,
                    static_cast<unsigned long long>(r.leafUpdates),
                    static_cast<unsigned long long>(r.coalesces),
                    static_cast<unsigned long long>(r.nodeWrites),
                    static_cast<unsigned long long>(r.flushes),
                    r.hostMs);

    for (const KernelResult &k : kernels)
        std::printf("%-34s %10.2f ns/op  (%llu ops, %.1f ms)\n",
                    k.name.c_str(), k.nsPerOp,
                    static_cast<unsigned long long>(k.ops), k.hostMs);
    for (const SystemResult &s : systems)
        std::printf("%-34s %10.3g sim-ticks/s (%llu txns, %.1f ms)\n",
                    s.name.c_str(), s.simTicksPerSec,
                    static_cast<unsigned long long>(s.txns), s.hostMs);

    if (out_path.empty()) {
        emitJson(std::cout, kernels, systems, quick, baseline_json,
                 checks, checks_ok, scaling, fork_speedup, chscaling,
                 chscaling16, fault_matrix, tree_matrix,
                 tree_overhead, rscaling, recrash, soak_matrix,
                 soak_scaling);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
            return 2;
        }
        emitJson(out, kernels, systems, quick, baseline_json, checks,
                 checks_ok, scaling, fork_speedup, chscaling,
                 chscaling16, fault_matrix, tree_matrix,
                 tree_overhead, rscaling, recrash, soak_matrix,
                 soak_scaling);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return checks_ok ? 0 : 1;
}
