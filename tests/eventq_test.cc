/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, priorities, run
 * limits, the one-shot node pool, and the clock helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/clocked.hh"
#include "sim/eventq.hh"

namespace cnvm
{
namespace
{

/** Schedules an event at @p when that appends @p tag to @p log. */
void
record(EventQueue &eq, std::vector<std::string> &log, Tick when,
       std::string tag, int priority = EventQueue::DefaultPriority)
{
    scheduleAt(eq, when, [&log, tag]() { log.push_back(tag); }, priority);
}

TEST(EventQueue, StartsAtTickZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, log, 300, "c");
    record(eq, log, 100, "a");
    record(eq, log, 200, "b");
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickFifoByInsertion)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, log, 50, "a");
    record(eq, log, 50, "b");
    record(eq, log, 50, "c");
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, log, 10, "low", EventQueue::MaxPriority);
    record(eq, log, 10, "high", EventQueue::MinPriority);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"high", "low"}));
}

TEST(EventQueue, RunLimitStopsBeforeLaterEvents)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, log, 100, "a");
    record(eq, log, 200, "b");
    eq.run(150);
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_EQ(eq.size(), 1u); // b still pending
    eq.run();
    EXPECT_EQ(log.size(), 2u);
}

TEST(EventQueue, EventsScheduledDuringProcessing)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    scheduleAt(eq, 10, [&]() {
        ticks.push_back(eq.curTick());
        scheduleAt(eq, 25, [&]() { ticks.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{10, 25}));
}

TEST(EventQueue, SameTickFollowupRunsAfterCurrent)
{
    EventQueue eq;
    std::vector<int> order;
    scheduleAt(eq, 10, [&]() {
        order.push_back(1);
        scheduleAt(eq, 10, [&]() { order.push_back(3); });
        order.push_back(2);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RequestStopEndsRun)
{
    EventQueue eq;
    int ran = 0;
    scheduleAt(eq, 10, [&]() {
        ++ran;
        eq.requestStop();
    });
    scheduleAt(eq, 20, [&]() { ++ran; });
    eq.run();
    EXPECT_EQ(ran, 1);
    eq.run(); // resumes
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, ProcessedCount)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        scheduleAt(eq, 10 * (i + 1), []() {});
    eq.run();
    EXPECT_EQ(eq.processedCount(), 5u);
}

TEST(EventQueue, RandomizedAgainstReferenceModel)
{
    // Model check: random schedule/step traffic at mixed priorities
    // against a sorted-vector reference holding the same (tick,
    // priority, seq) keys. The narrow tick window makes same-tick ties
    // common, so priority and insertion order decide most pops.
    struct Ref
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        int id;
        bool
        operator<(const Ref &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (priority != o.priority)
                return priority < o.priority;
            return seq < o.seq;
        }
    };

    EventQueue eq;
    std::vector<int> fired;
    const int priorities[3] = {EventQueue::MinPriority,
                               EventQueue::DefaultPriority,
                               EventQueue::MaxPriority};
    std::uint64_t rng = 12345;
    auto next_rand = [&rng]() {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };

    std::vector<Ref> model;
    std::vector<int> modelFired;
    std::uint64_t seq = 0;
    for (int round = 0; round < 2000; ++round) {
        if (next_rand() % 2 == 0) {
            Tick when = eq.curTick() + next_rand() % 64;
            int priority = priorities[next_rand() % 3];
            int id = round;
            scheduleAt(eq, when, [&fired, id]() { fired.push_back(id); },
                       priority);
            model.push_back(Ref{when, priority, seq++, id});
        } else if (!model.empty()) {
            auto it = std::min_element(model.begin(), model.end());
            Tick when = it->when;
            modelFired.push_back(it->id);
            model.erase(it);
            ASSERT_TRUE(eq.step());
            ASSERT_EQ(eq.curTick(), when) << "round " << round;
        }
        ASSERT_EQ(eq.size(), model.size()) << "round " << round;
    }
    eq.run();
    std::sort(model.begin(), model.end());
    for (const Ref &r : model)
        modelFired.push_back(r.id);
    EXPECT_EQ(fired, modelFired);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTick)
{
    EventQueue eq;
    Tick observed = 0;
    scheduleAt(eq, 100, [&]() {
        scheduleAfter(eq, 50, [&]() { observed = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(observed, 150u);
}

// --- one-shot pool ---------------------------------------------------------

TEST(EventQueue, DestroyedQueueDestroysEachPendingCaptureOnce)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        for (int i = 0; i < 8; ++i)
            scheduleAt(eq, 10 * (i + 1), [token]() { ++*token; });
        EXPECT_EQ(token.use_count(), 9);
        // Half run (their captures die with them); half stay pending.
        eq.run(40);
        EXPECT_EQ(*token, 4);
        EXPECT_EQ(token.use_count(), 5);
    }
    EXPECT_EQ(*token, 4);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, ReusedOneShotTakesItsNewPriority)
{
    EventQueue eq;
    std::vector<std::string> log;
    // Leaves exactly one node in the pool, last run at MaxPriority.
    record(eq, log, 10, "max", EventQueue::MaxPriority);
    eq.run();

    // "reused" takes the pooled node; the others get new ones.
    record(eq, log, 20, "reused");
    record(eq, log, 20, "last");
    record(eq, log, 20, "early", EventQueue::MinPriority);
    eq.run();
    // (tick, priority, seq): a node still carrying MaxPriority would
    // run after "last".
    EXPECT_EQ(log, (std::vector<std::string>{"max", "early", "reused",
                                             "last"}));
}

TEST(ClockDomain, Conversions)
{
    ClockDomain cpu(250); // 4 GHz
    EXPECT_EQ(cpu.periodTicks(), 250u);
    EXPECT_EQ(cpu.cyclesToTicks(4), 1000u);
}

} // anonymous namespace
} // namespace cnvm
