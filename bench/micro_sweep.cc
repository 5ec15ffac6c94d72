/**
 * @file
 * Micro-benchmarks for the host-parallel crash paths.
 *
 * The crash-point sweep's Execute phase: host time per crash point in
 * Replay mode (one dedicated crashed simulation per point) versus Fork
 * mode (one trunk run, K captured persistent-state forks classified
 * off-trunk), at growing K on the queue workload, at 1 and 4 jobs.
 * Replay's per-point cost is a full simulation to the crash tick, so
 * ns/point stays roughly flat in K. Fork amortizes the one trunk run
 * over all K points, leaving only a recovery per point — its ns/point
 * falls as K grows, which is the whole argument for the mode. At
 * 1 job Replay and Fork differ only in work done; 4 jobs adds the
 * pool's fan-out.
 *
 * Four more rows ride along: fault-dosed soak chains fanned over 1
 * and 4 jobs, crash recovery of growing MAC-armed regions on one
 * thread, fork capture from a trunk over growing regions — a fork
 * shares the trunk's image pages, so only the pages the ADR drain and
 * the integrity-tree flush write should grow a capture's cost — and
 * the build of the 16-core, 8-channel machine: each core's setup,
 * live view and install, then the counter-cache warm.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.hh"
#include "core/crash_sweep.hh"
#include "core/soak.hh"
#include "core/system.hh"

using namespace cnvm;

namespace
{

SystemConfig
sweepConfig()
{
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = WorkloadKind::Queue;
    cfg.wl.regionBytes = 256u << 10;
    cfg.wl.txnTarget = 30;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    cfg.memctl.counterCacheBytes = 16u << 10;
    return cfg;
}

void
runSweepBench(benchmark::State &state, SweepMode mode)
{
    SystemConfig cfg = sweepConfig();
    SweepOptions opt;
    opt.points = static_cast<unsigned>(state.range(0));
    opt.mode = mode;
    opt.jobs = static_cast<unsigned>(state.range(1));

    std::uint64_t points = 0;
    for (auto _ : state) {
        SweepResult result = runSweep(cfg, opt);
        points += result.points.size();
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(points));
    state.SetLabel(sweepModeName(mode));
}

void
BM_SweepReplay(benchmark::State &state)
{
    runSweepBench(state, SweepMode::Replay);
}
BENCHMARK(BM_SweepReplay)->ArgsProduct({{8, 32, 128}, {1, 4}})
    ->ArgNames({"points", "jobs"})->Unit(benchmark::kMillisecond);

void
BM_SweepFork(benchmark::State &state)
{
    runSweepBench(state, SweepMode::Fork);
}
BENCHMARK(BM_SweepFork)->ArgsProduct({{8, 32, 128}, {1, 4}})
    ->ArgNames({"points", "jobs"})->Unit(benchmark::kMillisecond);

/** 4 fault-dosed SCA chains of 8 cycles, fanned over range(0) jobs. */
void
BM_SoakChains(benchmark::State &state)
{
    SystemConfig cfg = sweepConfig();
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.txnTarget = 40;
    cfg.memctl.integrityMac = true;
    SoakOptions opt;
    opt.chains = 4;
    opt.cycles = 8;
    opt.faults = FaultSpec::allKinds(1);
    opt.jobs = static_cast<unsigned>(state.range(0));

    for (auto _ : state) {
        SoakResult result = runSoak(cfg, opt);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_SoakChains)->ArgName("jobs")->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/** Recovery of an SCA region of range(0) KB with MACs, crashed
 *  mid-run. */
void
BM_RecoverAll(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = static_cast<std::uint64_t>(state.range(0)) << 10;
    cfg.wl.txnTarget = 40;
    cfg.wl.computePerTxn = 100;
    cfg.wl.setupFill = 0.5;
    cfg.memctl.integrityMac = true;
    Tick total = System(cfg).run().endTick;
    System sys(cfg);
    sys.runWithCrashAt(total / 2);

    for (auto _ : state) {
        std::vector<RecoveryReport> reports = sys.recoverAll();
        benchmark::DoNotOptimize(reports);
    }
}
BENCHMARK(BM_RecoverAll)->ArgName("kb")->Arg(512)->Arg(2048)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

/** One trunk run of the sweep machine over a range(0) KB region with
 *  the MAC and the tree armed, capturing 32 planned forks that the
 *  sink discards; items are captures. */
void
BM_ForkCapture(benchmark::State &state)
{
    SystemConfig cfg = sweepConfig();
    cfg.wl.regionBytes = static_cast<std::uint64_t>(state.range(0)) << 10;
    cfg.memctl.integrityTree = true;
    const std::vector<CrashSpec> plan = planSweep(probeRun(cfg), 32);

    std::uint64_t captures = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto trunk = std::make_unique<System>(cfg);
        state.ResumeTiming();
        RunResult run = trunk->runWithForkCapture(
            plan, [&captures](std::size_t, PersistFork fork) {
                benchmark::DoNotOptimize(fork);
                ++captures;
            });
        benchmark::DoNotOptimize(run);
        state.PauseTiming();
        trunk.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(captures));
}
BENCHMARK(BM_ForkCapture)->ArgName("kb")->Arg(512)->Arg(2048)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

/** Builds perfbench's scale-16c8ch machine (SCA, 16 cores, 8
 *  channels, a 2 MB region per core) on @p kind; teardown is paused.
 *  Items are the lines installed. */
void
BM_SystemBuild(benchmark::State &state, WorkloadKind kind)
{
    SystemConfig cfg = bench::paperConfig(kind, DesignPoint::SCA, 16, 1000);
    cfg.numChannels = 8;
    cfg.wl.regionBytes = 2ull << 20;

    std::uint64_t lines = 0;
    for (auto _ : state) {
        auto sys = std::make_unique<System>(cfg);
        benchmark::DoNotOptimize(sys.get());
        state.PauseTiming();
        for (unsigned c = 0; c < cfg.numCores; ++c)
            lines += sys->workload(c).shadowMem().touchedLines();
        sys.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lines));
}
BENCHMARK_CAPTURE(BM_SystemBuild, kind:hash, WorkloadKind::HashTable)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemBuild, kind:btree, WorkloadKind::BTree)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
