/**
 * @file
 * Micro-benchmarks for the discrete-event kernel: scheduling and
 * processing throughput, which bounds how fast the whole simulator can
 * run.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <functional>

#include "sim/eventq.hh"

using namespace cnvm;

namespace
{

void
BM_ScheduleProcess(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    std::uint64_t processed = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < batch; ++i)
            scheduleAt(eq, static_cast<Tick>(i) * 10,
                       [&]() { ++processed; });
        eq.run();
    }
    benchmark::DoNotOptimize(processed);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleProcess)->Arg(16)->Arg(256)->Arg(4096);

void
BM_ScheduleProcessWideCapture(benchmark::State &state)
{
    // One-shots carrying a full inline buffer's worth of capture, the
    // shape of the cache path's write-allocate continuation and the
    // controller's pipeline exit (a line of data plus a callback). One
    // long-lived queue, as in a simulation: after the first batch its
    // node pool is warm.
    const int batch = static_cast<int>(state.range(0));
    std::uint64_t processed = 0;
    std::array<std::uint8_t, EventQueue::oneShotBytes - 8> payload{};
    EventQueue eq;
    for (auto _ : state) {
        const Tick base = eq.curTick();
        for (int i = 0; i < batch; ++i) {
            payload[0] = static_cast<std::uint8_t>(i);
            scheduleAt(eq, base + static_cast<Tick>(i + 1) * 10,
                       [&processed, payload]() { processed += payload[0]; });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(processed);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleProcessWideCapture)->Arg(16)->Arg(256)->Arg(4096);

void
BM_SelfChainingEvent(benchmark::State &state)
{
    // The typical model pattern: each event schedules the next.
    const int chain = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        int remaining = chain;
        std::function<void()> step = [&]() {
            if (--remaining > 0)
                scheduleAfter(eq, 250, step);
        };
        scheduleAt(eq, 0, step);
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * chain);
}
BENCHMARK(BM_SelfChainingEvent)->Arg(1024);

} // anonymous namespace

BENCHMARK_MAIN();
