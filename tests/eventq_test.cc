/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, priorities,
 * rescheduling, run limits, and the clock/one-shot helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/clocked.hh"
#include "sim/eventq.hh"
#include "sim/one_shot.hh"

namespace cnvm
{
namespace
{

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<std::string> &log, std::string tag,
                   int priority = DefaultPriority)
        : Event(tag, priority), log(log), tag(std::move(tag))
    {}

    void process() override { log.push_back(tag); }

  private:
    std::vector<std::string> &log;
    std::string tag;
};

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
    RecordingEvent a(log, "a"), b(log, "b"), c(log, "c");
    eq.schedule(c, 300);
    eq.schedule(a, 100);
    eq.schedule(b, 200);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickFifoByInsertion)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a(log, "a"), b(log, "b"), c(log, "c");
    eq.schedule(a, 50);
    eq.schedule(b, 50);
    eq.schedule(c, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent low(log, "low", Event::MaxPriority);
    RecordingEvent high(log, "high", Event::MinPriority);
    eq.schedule(low, 10);
    eq.schedule(high, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"high", "low"}));
}

TEST(EventQueue, ScheduledFlagTracksState)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a(log, "a");
    EXPECT_FALSE(a.scheduled());
    eq.schedule(a, 5);
    EXPECT_TRUE(a.scheduled());
    EXPECT_EQ(a.when(), 5u);
    eq.run();
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a(log, "a"), b(log, "b");
    eq.schedule(a, 10);
    eq.schedule(b, 20);
    eq.deschedule(a);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b"}));
}

TEST(EventQueue, Reschedule)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a(log, "a"), b(log, "b");
    eq.schedule(a, 10);
    eq.schedule(b, 20);
    eq.reschedule(a, 30); // moves a after b
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b", "a"}));
}

TEST(EventQueue, RescheduleUnscheduledSchedules)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a(log, "a");
    eq.reschedule(a, 15);
    eq.run();
    EXPECT_EQ(log.size(), 1u);
}

TEST(EventQueue, RunLimitStopsBeforeLaterEvents)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a(log, "a"), b(log, "b");
    eq.schedule(a, 100);
    eq.schedule(b, 200);
    eq.run(150);
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_TRUE(b.scheduled());
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

TEST(EventQueue, DestructorDeschedulesEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    {
        RecordingEvent a(log, "a");
        eq.schedule(a, 10);
        // a destroyed while scheduled: must not be processed.
    }
    eq.run();
    EXPECT_TRUE(log.empty());
}

// --- lazy-deletion heap internals ----------------------------------------

TEST(EventQueue, SizeExcludesDescheduledEntries)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a(log, "a"), b(log, "b"), c(log, "c");
    eq.schedule(a, 10);
    eq.schedule(b, 20);
    eq.schedule(c, 30);
    EXPECT_EQ(eq.size(), 3u);
    eq.deschedule(b);
    // The heap slot is only lazily discarded, but size() must report
    // live events.
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "c"}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleThenDestroyThenReuseSlot)
{
    // The destroyed event's heap slot must never be dereferenced, even
    // when later schedules reuse and re-sift the heap around it.
    EventQueue eq;
    std::vector<std::string> log;
    auto victim = std::make_unique<RecordingEvent>(log, "victim");
    eq.schedule(*victim, 50);
    eq.deschedule(*victim);
    victim.reset();
    RecordingEvent a(log, "a"), b(log, "b");
    eq.schedule(a, 40); // sifts past the disowned slot
    eq.schedule(b, 60);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b"}));
}

TEST(EventQueue, DescheduleThenRescheduleKeepsOneInstance)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a(log, "a");
    eq.schedule(a, 10);
    eq.deschedule(a);
    eq.schedule(a, 30);
    eq.deschedule(a);
    eq.schedule(a, 20);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_EQ(eq.curTick(), 20u);
}

TEST(EventQueue, CompactionPreservesOrderUnderHeavyDeschedule)
{
    // Drive deschedule count past the compaction threshold and verify
    // the surviving events still fire in exact (tick, seq) order.
    EventQueue eq;
    std::vector<std::string> log;
    std::vector<std::unique_ptr<RecordingEvent>> events;
    for (int i = 0; i < 400; ++i) {
        events.push_back(std::make_unique<RecordingEvent>(
            log, std::to_string(i)));
        // Scatter ticks; collisions fall back to insertion order.
        eq.schedule(*events.back(), (i * 7919) % 97);
    }
    std::vector<std::string> expected;
    for (int i = 0; i < 400; ++i) {
        if (i % 4 != 0) {
            eq.deschedule(*events[i]);
        }
    }
    // Expected order: by (tick, insertion seq) over the survivors.
    std::vector<std::pair<std::pair<Tick, int>, std::string>> keyed;
    for (int i = 0; i < 400; i += 4)
        keyed.push_back({{(i * 7919) % 97, i}, std::to_string(i)});
    std::sort(keyed.begin(), keyed.end());
    for (auto &k : keyed)
        expected.push_back(k.second);
    eq.run();
    EXPECT_EQ(log, expected);
}

TEST(EventQueue, RandomizedAgainstReferenceModel)
{
    // Model check: random schedule/deschedule/reschedule/step traffic
    // against a sorted-vector reference holding the same (tick,
    // priority, seq) keys.
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
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    const int numEvents = 64;
    int priorities[3] = {Event::MinPriority, Event::DefaultPriority,
                         Event::MaxPriority};
    std::uint64_t rng = 12345;
    auto next_rand = [&rng]() {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return rng >> 33;
    };
    for (int i = 0; i < numEvents; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&fired, i]() { fired.push_back(i); }, "e",
            priorities[i % 3]));
    }

    std::vector<Ref> model;
    std::vector<int> modelFired;
    std::uint64_t seq = 0;
    for (int round = 0; round < 2000; ++round) {
        int id = static_cast<int>(next_rand() % numEvents);
        Event &ev = *events[id];
        unsigned action = next_rand() % 4;
        if (action == 0 && !ev.scheduled()) {
            Tick when = eq.curTick() + next_rand() % 1000;
            eq.schedule(ev, when);
            model.push_back(Ref{when, ev.priority(), seq++, id});
        } else if (action == 1 && ev.scheduled()) {
            eq.deschedule(ev);
            model.erase(std::find_if(model.begin(), model.end(),
                [&](const Ref &r) { return r.id == id; }));
        } else if (action == 2) {
            Tick when = eq.curTick() + next_rand() % 1000;
            eq.reschedule(ev, when);
            auto it = std::find_if(model.begin(), model.end(),
                [&](const Ref &r) { return r.id == id; });
            if (it != model.end())
                model.erase(it);
            model.push_back(Ref{when, ev.priority(), seq++, id});
        } else if (action == 3 && !model.empty()) {
            auto it = std::min_element(model.begin(), model.end());
            modelFired.push_back(it->id);
            model.erase(it);
            ASSERT_TRUE(eq.step());
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
    scheduleAt(eq, 10, [&]() { log.push_back("max"); }, Event::MaxPriority);
    eq.run();

    RecordingEvent first(log, "first"), last(log, "last");
    RecordingEvent early(log, "early", Event::MinPriority);
    eq.schedule(first, 20);
    scheduleAt(eq, 20, [&]() { log.push_back("reused"); });
    eq.schedule(last, 20);
    eq.schedule(early, 20);
    eq.run();
    // (tick, priority, seq): a node still carrying MaxPriority would
    // run after "last".
    EXPECT_EQ(log, (std::vector<std::string>{"max", "early", "first",
                                             "reused", "last"}));
}

TEST(ClockDomain, Conversions)
{
    ClockDomain cpu(250); // 4 GHz
    EXPECT_EQ(cpu.periodTicks(), 250u);
    EXPECT_EQ(cpu.cyclesToTicks(4), 1000u);
    EXPECT_EQ(cpu.ticksToCycles(1000), 4u);
    EXPECT_EQ(cpu.ticksToCycles(1001), 5u); // rounds up
}

TEST(ClockDomain, FromMHz)
{
    ClockDomain mem = ClockDomain::fromMHz(1000);
    EXPECT_EQ(mem.periodTicks(), 1000u);
}

TEST(Clocked, ClockEdgeAligned)
{
    EventQueue eq;
    Clocked clocked(eq, ClockDomain(250));
    EXPECT_EQ(clocked.clockEdge(), 0u);
    EXPECT_EQ(clocked.clockEdge(2), 500u);

    Tick edge = 0;
    scheduleAt(eq, 130, [&]() { edge = clocked.clockEdge(); });
    eq.run();
    EXPECT_EQ(edge, 250u); // next edge after tick 130
}

} // anonymous namespace
} // namespace cnvm
