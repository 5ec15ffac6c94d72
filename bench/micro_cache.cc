/**
 * @file
 * Micro-benchmarks for the structural caches (data cache and counter
 * cache): lookup and allocation throughput.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "mem/cache.hh"
#include "memctl/counter_cache.hh"

using namespace cnvm;

namespace
{

void
BM_CacheHitLookup(benchmark::State &state)
{
    Cache cache("bench", 2 << 20, 8);
    for (Addr a = 0; a < (2 << 20); a += lineBytes)
        cache.allocate(a, CacheLine{});
    Random rng(1);
    for (auto _ : state) {
        Addr addr = lineAlign(rng.below(2 << 20));
        benchmark::DoNotOptimize(cache.access(addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLookup);

void
BM_CacheMissLookup(benchmark::State &state)
{
    Cache cache("bench", 64 << 10, 8);
    Random rng(2);
    for (auto _ : state) {
        // Addresses beyond the cache: always a miss.
        Addr addr = lineAlign((1ull << 30) + rng.below(1 << 26));
        benchmark::DoNotOptimize(cache.access(addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissLookup);

void
BM_CacheAllocateEvict(benchmark::State &state)
{
    Cache cache("bench", 64 << 10, 8);
    Addr next = 0;
    for (auto _ : state) {
        auto victim = cache.allocate(next, CacheLine{});
        benchmark::DoNotOptimize(victim);
        next += lineBytes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAllocateEvict);

void
BM_CounterCacheAccess(benchmark::State &state)
{
    CounterCache cc(1 << 20, 16, nullptr);
    for (Addr a = 0; a < (1 << 20); a += lineBytes)
        cc.install(a, CounterLine{}, 0);
    Random rng(3);
    for (auto _ : state) {
        Addr addr = lineAlign(rng.below(1 << 20));
        benchmark::DoNotOptimize(cc.access(addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterCacheAccess);

} // anonymous namespace

BENCHMARK_MAIN();
