/**
 * @file
 * Unit tests for the WorkPool runner: deterministic in-order result
 * collection, exception propagation out of workers, and pool reuse
 * across submission cycles.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "runner/runner.hh"

namespace cnvm
{
namespace
{

TEST(WorkPool, HardwareJobsIsPositive)
{
    EXPECT_GE(WorkPool::hardwareJobs(), 1u);
    WorkPool dflt;
    EXPECT_EQ(dflt.jobs(), WorkPool::hardwareJobs());
    WorkPool one(1);
    EXPECT_EQ(one.jobs(), 1u);
}

TEST(WorkPool, EmptyBatchIsANoop)
{
    WorkPool pool(4);
    unsigned calls = 0;
    auto out = pool.map<int>(0, [&](std::size_t) { return ++calls; });
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(calls, 0u);
}

TEST(WorkPool, RunsEveryIndexExactlyOnce)
{
    WorkPool pool(4);
    constexpr std::size_t n = 200;
    std::vector<std::atomic<unsigned>> hits(n);
    pool.map<unsigned>(n, [&](std::size_t i) { return ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(WorkPool, MapCollectsResultsInIndexOrder)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        WorkPool pool(jobs);
        // Early indices sleep longest, so with several workers the
        // *completion* order inverts the index order; collection must
        // still come back in index order.
        auto out = pool.map<std::size_t>(16, [](std::size_t i) {
            std::this_thread::sleep_for(
                std::chrono::microseconds((16 - i) * 100));
            return i * i;
        });
        ASSERT_EQ(out.size(), 16u) << "jobs=" << jobs;
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i) << "jobs=" << jobs;
    }
}

TEST(WorkPool, PropagatesWorkerException)
{
    WorkPool pool(4);
    EXPECT_THROW(pool.map<int>(32,
                               [](std::size_t i) {
                                   if (i == 7)
                                       throw std::runtime_error("boom 7");
                                   return 0;
                               }),
                 std::runtime_error);
}

TEST(WorkPool, RethrowsLowestFailedIndex)
{
    for (unsigned jobs : {1u, 4u}) {
        WorkPool pool(jobs);
        try {
            pool.map<int>(32, [](std::size_t i) {
                if (i == 3 || i == 20)
                    throw std::runtime_error("boom " + std::to_string(i));
                return 0;
            });
            FAIL() << "no exception propagated (jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 3") << "jobs=" << jobs;
        }
    }
}

TEST(WorkPool, PoolIsReusableAcrossBatches)
{
    WorkPool pool(4);
    for (unsigned round = 0; round < 5; ++round) {
        auto out = pool.map<unsigned>(
            64, [&](std::size_t i) {
                return round * 1000 + static_cast<unsigned>(i);
            });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], round * 1000 + i) << "round " << round;
    }
}

TEST(WorkPool, ReusableAfterAFailedBatch)
{
    WorkPool pool(4);
    EXPECT_THROW(pool.map<int>(8,
                               [](std::size_t) -> int {
                                   throw std::logic_error("x");
                               }),
                 std::logic_error);
    auto out = pool.map<int>(8, [](std::size_t i) {
        return static_cast<int>(i) + 1;
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) + 1);
}

TEST(WorkPool, SerialPoolRunsInIndexOrder)
{
    WorkPool pool(1);
    std::vector<std::size_t> order;
    pool.map<int>(10, [&](std::size_t i) {
        order.push_back(i);
        return 0;
    });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(WorkPool, ManyMoreTasksThanWorkers)
{
    WorkPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    pool.map<int>(10000, [&](std::size_t i) {
        sum += i;
        return 0;
    });
    EXPECT_EQ(sum.load(), 10000ull * 9999ull / 2);
}

// --- submit()/waitSubmitted() ---------------------------------------------

TEST(WorkPoolSubmit, RunsEverySubmittedTaskExactlyOnce)
{
    for (unsigned jobs : {1u, 4u}) {
        WorkPool pool(jobs);
        constexpr std::size_t n = 200;
        std::vector<std::atomic<unsigned>> hits(n);
        for (std::size_t i = 0; i < n; ++i)
            pool.submit([&hits, i]() { ++hits[i]; });
        pool.waitSubmitted();
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1u)
                << "jobs=" << jobs << " index " << i;
    }
}

TEST(WorkPoolSubmit, WorkersDrainWhileOwnerProduces)
{
    // The point of submit(): tasks submitted early complete while the
    // owner is still producing later ones. With one worker dedicated
    // to draining, all tasks must be done by the time the slow
    // producer calls waitSubmitted().
    WorkPool pool(4);
    std::atomic<unsigned> done{0};
    for (unsigned i = 0; i < 8; ++i) {
        pool.submit([&done]() { ++done; });
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pool.waitSubmitted();
    EXPECT_EQ(done.load(), 8u);
}

TEST(WorkPoolSubmit, RethrowsEarliestSubmittedFailure)
{
    for (unsigned jobs : {1u, 4u}) {
        WorkPool pool(jobs);
        std::atomic<unsigned> ran{0};
        for (unsigned i = 0; i < 16; ++i) {
            pool.submit([&ran, i]() {
                ++ran;
                if (i == 3 || i == 12)
                    throw std::runtime_error("boom "
                                             + std::to_string(i));
            });
        }
        try {
            pool.waitSubmitted();
            FAIL() << "no exception propagated (jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 3") << "jobs=" << jobs;
        }
        // Submitted tasks are independent: a failure cancels nothing.
        EXPECT_EQ(ran.load(), 16u) << "jobs=" << jobs;
    }
}

TEST(WorkPoolSubmit, CycleIsReusableAndAfterFailure)
{
    WorkPool pool(4);
    for (unsigned round = 0; round < 3; ++round) {
        std::atomic<unsigned> done{0};
        for (unsigned i = 0; i < 32; ++i)
            pool.submit([&done]() { ++done; });
        pool.waitSubmitted();
        EXPECT_EQ(done.load(), 32u) << "round " << round;
    }

    pool.submit([]() { throw std::logic_error("x"); });
    EXPECT_THROW(pool.waitSubmitted(), std::logic_error);

    std::atomic<unsigned> after{0};
    for (unsigned i = 0; i < 8; ++i)
        pool.submit([&after]() { ++after; });
    pool.waitSubmitted();
    EXPECT_EQ(after.load(), 8u);
}

TEST(WorkPoolSubmit, MixesWithBatchCycles)
{
    // map() is a submission cycle of its own: it interleaves with
    // hand-driven submit()/waitSubmitted() cycles on one pool.
    WorkPool pool(4);
    std::atomic<unsigned> submitted{0};
    for (unsigned i = 0; i < 16; ++i)
        pool.submit([&submitted]() { ++submitted; });
    pool.waitSubmitted();
    EXPECT_EQ(submitted.load(), 16u);

    auto out = pool.map<int>(8, [](std::size_t i) {
        return static_cast<int>(i) * 2;
    });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 2);

    std::atomic<unsigned> again{0};
    for (unsigned i = 0; i < 16; ++i)
        pool.submit([&again]() { ++again; });
    pool.waitSubmitted();
    EXPECT_EQ(again.load(), 16u);
}

TEST(WorkPoolSubmit, WaitWithNothingSubmittedIsANoop)
{
    WorkPool pool(4);
    pool.waitSubmitted();
    WorkPool serial(1);
    serial.waitSubmitted();
}

} // anonymous namespace
} // namespace cnvm
