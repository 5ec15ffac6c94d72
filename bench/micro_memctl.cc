/**
 * @file
 * Micro-benchmarks for the memory controller, plus a small write-queue
 * timeline experiment mirroring the paper's Figures 7/8: the time to
 * push a burst of dependent writes through each design's queues.
 */

#include <benchmark/benchmark.h>

#include "memctl/mem_controller.hh"
#include "sim/eventq.hh"

using namespace cnvm;

namespace
{

/** Host-side throughput of simulating one full write (accept+drain). */
void
BM_SimulatedWriteDrain(benchmark::State &state)
{
    DesignPoint design = static_cast<DesignPoint>(state.range(0));
    EventQueue eq;
    NvmDevice nvm(NvmTiming::pcm(), nullptr);
    MemCtlConfig cfg;
    cfg.design = design;
    MemController ctl(eq, nvm, cfg, nullptr);

    Addr addr = 0x40000;
    for (auto _ : state) {
        WriteReq req;
        req.addr = addr;
        req.data = LineData{};
        req.counterAtomic = true;
        addr += lineBytes;
        while (!ctl.tryWrite(req))
            eq.step();
        eq.run();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(designName(design));
}
BENCHMARK(BM_SimulatedWriteDrain)
    ->Arg(static_cast<int>(DesignPoint::NoEncryption))
    ->Arg(static_cast<int>(DesignPoint::FCA))
    ->Arg(static_cast<int>(DesignPoint::SCA));

/** Host-side throughput of simulating one read. */
void
BM_SimulatedRead(benchmark::State &state)
{
    EventQueue eq;
    NvmDevice nvm(NvmTiming::pcm(), nullptr);
    MemCtlConfig cfg;
    cfg.design = DesignPoint::SCA;
    MemController ctl(eq, nvm, cfg, nullptr);

    Addr addr = 0x40000;
    for (auto _ : state) {
        bool done = false;
        ctl.issueRead(addr, [&]() { done = true; });
        eq.run();
        benchmark::DoNotOptimize(done);
        addr += lineBytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedRead);

/**
 * Figure 7/8 companion: simulated time (ns) for a burst of writes that
 * alternate between two lines of the same counter-line group — the
 * dependent-write pattern the paper uses to illustrate full
 * counter-atomicity's serialization. Reported as the "ns_simulated"
 * counter (lower is better).
 */
void
BM_DependentWriteBurst(benchmark::State &state)
{
    DesignPoint design = static_cast<DesignPoint>(state.range(0));
    double total_ns = 0;
    std::uint64_t bursts = 0;
    for (auto _ : state) {
        EventQueue eq;
        NvmDevice nvm(NvmTiming::pcm(), nullptr);
        MemCtlConfig cfg;
        cfg.design = design;
        MemController ctl(eq, nvm, cfg, nullptr);

        unsigned accepted = 0;
        for (int i = 0; i < 8; ++i) {
            WriteReq req;
            req.addr = 0x40000 + (i % 2) * lineBytes;
            req.data = LineData{};
            req.data[0] = static_cast<std::uint8_t>(i);
            req.counterAtomic = true;
            req.accepted = [&]() { ++accepted; };
            while (!ctl.tryWrite(req))
                eq.step();
        }
        eq.run();
        benchmark::DoNotOptimize(accepted);
        total_ns += static_cast<double>(eq.curTick()) / ticksPerNs;
        ++bursts;
    }
    state.counters["ns_simulated"] =
        benchmark::Counter(total_ns / static_cast<double>(bursts));
    state.SetLabel(designName(design));
}
BENCHMARK(BM_DependentWriteBurst)
    ->Arg(static_cast<int>(DesignPoint::Ideal))
    ->Arg(static_cast<int>(DesignPoint::SCA))
    ->Arg(static_cast<int>(DesignPoint::FCA));

/**
 * Queue-pressure kernel: bursts deep enough to fill enlarged write
 * queues (256 data, 64 counter entries) with reads interleaved against
 * the occupied queue — the state where every per-entry linear scan
 * (forwarding, combining, pair blocking, completion) is longest.
 */
void
BM_WriteReadBurstQueuePressure(benchmark::State &state)
{
    constexpr unsigned writesPerBurst = 224;
    constexpr unsigned readsPerBurst = 32;
    constexpr Addr base = 0x40000;
    constexpr unsigned lineSpan = 4096;

    EventQueue eq;
    NvmDevice nvm(NvmTiming::pcm(), nullptr);
    MemCtlConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.dataWqEntries = 256;
    cfg.ctrWqEntries = 64;
    MemController ctl(eq, nvm, cfg, nullptr);

    std::uint64_t it = 0;
    std::uint64_t readsDone = 0;
    for (auto _ : state) {
        auto lineAt = [&](std::uint64_t i) {
            return base + ((it * writesPerBurst + i) % lineSpan) * lineBytes;
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
        for (unsigned r = 0; r < readsPerBurst; ++r)
            ctl.issueRead(lineAt(r * 3 % writesPerBurst),
                          [&]() { ++readsDone; });
        eq.run();
        ++it;
    }
    benchmark::DoNotOptimize(readsDone);
    state.SetItemsProcessed(state.iterations()
                            * (writesPerBurst + readsPerBurst));
}
BENCHMARK(BM_WriteReadBurstQueuePressure);

} // anonymous namespace

BENCHMARK_MAIN();
