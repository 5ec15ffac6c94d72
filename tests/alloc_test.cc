/**
 * @file
 * Heap-allocation budget of the event hot path. This binary replaces
 * the global operator new with a counting one, so it is its own test
 * executable.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/system.hh"
#include "sim/eventq.hh"

namespace
{

std::atomic<std::uint64_t> heapAllocations{0};

void *
countedAlloc(std::size_t size)
{
    heapAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace cnvm
{
namespace
{

TEST(Alloc, WideOneShotsAllocateNothingOnceThePoolIsWarm)
{
    EventQueue eq;
    std::uint64_t sum = 0;
    auto round = [&]() {
        for (unsigned i = 0; i < 1000; ++i) {
            std::array<std::uint8_t, 136> payload{};
            payload[i % payload.size()] = static_cast<std::uint8_t>(i);
            auto fn = [&sum, payload]() { sum += payload[0]; };
            static_assert(sizeof(fn) == EventQueue::oneShotBytes);
            scheduleAt(eq, eq.curTick() + 1 + i % 7, std::move(fn));
        }
        eq.run();
    };
    round(); // grows the pool and the heap to 1000 pending events
    const std::uint64_t before = heapAllocations.load();
    round();
    EXPECT_EQ(heapAllocations.load() - before, 0u);
    EXPECT_EQ(eq.processedCount(), 2000u);
    EXPECT_GT(sum, 0u);
}

TEST(Alloc, SystemRunMakesAtMostOneAllocationPerEvent)
{
    SystemConfig cfg;
    cfg.design = DesignPoint::SCA;
    cfg.workload = WorkloadKind::HashTable;
    cfg.numCores = 4;
    cfg.numChannels = 2;
    cfg.wl.regionBytes = 512u << 10;
    cfg.wl.txnTarget = 200;
    System sys(cfg);

    const std::uint64_t events_before = sys.eventQueue().processedCount();
    const std::uint64_t allocs_before = heapAllocations.load();
    RunResult result = sys.run();
    const std::uint64_t allocs = heapAllocations.load() - allocs_before;
    const std::uint64_t events =
        sys.eventQueue().processedCount() - events_before;

    ASSERT_FALSE(result.crashed);
    ASSERT_GT(events, 10000u);
    const double per_event = static_cast<double>(allocs) / events;
    RecordProperty("allocations_per_event", std::to_string(per_event));
    EXPECT_LE(per_event, 1.0) << allocs << " allocations over " << events
                              << " events";
}

} // anonymous namespace
} // namespace cnvm
