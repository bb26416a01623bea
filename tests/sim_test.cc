/** @file Unit tests for the simulation kernel (event queue, RNG, stats,
 *  ring deque). */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/ring_deque.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace invisifence;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&]() { order.push_back(3); });
    eq.scheduleAt(10, [&]() { order.push_back(1); });
    eq.scheduleAt(20, [&]() { order.push_back(2); });
    eq.advanceTo(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, SameTickPreservesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.scheduleAt(5, [&order, i]() { order.push_back(i); });
    eq.advanceTo(5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, AdvanceStopsAtRequestedTick)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(10, [&]() { ++fired; });
    eq.scheduleAt(11, [&]() { ++fired; });
    eq.advanceTo(10);
    EXPECT_EQ(fired, 1);
    eq.advanceTo(11);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(5, [&]() {
        eq.schedule(0, [&]() { ++fired; });   // lands at tick 5 too
        eq.schedule(100, [&]() { ++fired; });
    });
    eq.advanceTo(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextEventTick(), 105u);
}

TEST(EventQueue, SameTickInsertionOrderAcrossScheduleSites)
{
    // Tie-break contract: same-tick events run in insertion order even
    // when scheduled from different places — up front, from an earlier
    // event, and from an event at the same tick.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(7, [&]() { order.push_back(0); });
    eq.scheduleAt(3, [&]() {
        eq.scheduleAt(7, [&]() { order.push_back(1); });
    });
    eq.scheduleAt(7, [&]() {
        order.push_back(2);
        eq.schedule(0, [&]() { order.push_back(3); });   // tick 7 too
    });
    eq.advanceTo(7);
    // Insertion order at tick 7: [0] up-front, [2] up-front-second,
    // [1] scheduled at tick 3, [3] scheduled during tick 7.
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
}

TEST(EventQueue, MidExecutionSchedulingAtOrBelowTickRunsInSameAdvance)
{
    // An event that schedules work for a later tick still <= the
    // advanceTo bound must see that work run in the same call.
    EventQueue eq;
    std::vector<Cycle> at;
    eq.scheduleAt(5, [&]() {
        eq.scheduleAt(9, [&]() { at.push_back(eq.now()); });
        eq.schedule(2, [&]() { at.push_back(eq.now()); });   // tick 7
    });
    eq.advanceTo(9);
    EXPECT_EQ(at, (std::vector<Cycle>{7, 9}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, NextEventTickTracksEarliestPendingEvent)
{
    EventQueue eq;
    eq.scheduleAt(40, []() {});
    EXPECT_EQ(eq.nextEventTick(), 40u);
    eq.scheduleAt(12, []() {});
    EXPECT_EQ(eq.nextEventTick(), 12u);
    eq.scheduleAt(25, []() {});
    EXPECT_EQ(eq.nextEventTick(), 12u);
    eq.advanceTo(12);
    EXPECT_EQ(eq.nextEventTick(), 25u);
    eq.advanceTo(30);
    EXPECT_EQ(eq.nextEventTick(), 40u);
    // Far-future events (beyond the timing wheel's span) still order
    // correctly against near ones.
    eq.scheduleAt(1'000'000, []() {});
    EXPECT_EQ(eq.nextEventTick(), 40u);
    eq.advanceTo(40);
    EXPECT_EQ(eq.nextEventTick(), 1'000'000u);
    eq.scheduleAt(500'000, []() {});
    EXPECT_EQ(eq.nextEventTick(), 500'000u);
    eq.drain();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 1'000'000u);
}

TEST(EventQueue, FarAndNearEventsAtSameTickPreserveScheduleOrder)
{
    // A far-scheduled event (beyond the wheel span) must run before a
    // near-scheduled one for the same tick: it was scheduled earlier.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(5000, [&]() { order.push_back(0); });   // far at t=0
    eq.advanceTo(4000);
    eq.scheduleAt(5000, [&]() { order.push_back(1); });   // near now
    eq.advanceTo(5000);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, ActivityCountersTrackScheduleAndExecute)
{
    EventQueue eq;
    EXPECT_EQ(eq.scheduledCount(), 0u);
    EXPECT_EQ(eq.executedCount(), 0u);
    eq.scheduleAt(2, []() {});
    eq.scheduleAt(4, []() {});
    EXPECT_EQ(eq.scheduledCount(), 2u);
    EXPECT_EQ(eq.executedCount(), 0u);
    eq.advanceTo(3);
    EXPECT_EQ(eq.executedCount(), 1u);
    eq.advanceTo(10);
    EXPECT_EQ(eq.executedCount(), 2u);
}

TEST(EventQueue, WakeHookFiresForTaggedEventsBeforeTheirCallback)
{
    EventQueue eq;
    std::vector<std::pair<std::uint32_t, Cycle>> wakes;
    std::vector<int> order;
    struct HookCtx {
        std::vector<std::pair<std::uint32_t, Cycle>>* wakes;
        std::vector<int>* order;
    } hookCtx{&wakes, &order};
    eq.setWakeHook(
        [](void* ctx, std::uint32_t node, Cycle when) {
            auto* c = static_cast<HookCtx*>(ctx);
            c->wakes->emplace_back(node, when);
            c->order->push_back(0);
        },
        &hookCtx);
    eq.scheduleAt(5, [&]() { order.push_back(1); }, 3);
    eq.scheduleAt(6, [&]() { order.push_back(2); });   // untagged: no wake
    eq.advanceTo(10);
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0], (std::pair<std::uint32_t, Cycle>{3, 5}));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RelativeScheduleUsesCurrentTime)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.advanceTo(50);
    eq.schedule(7, [&]() { seen = eq.now(); });
    eq.drain();
    EXPECT_EQ(seen, 57u);
}

TEST(EventQueue, DrainEmptiesEverything)
{
    EventQueue eq;
    int fired = 0;
    for (Cycle t = 1; t <= 64; ++t)
        eq.scheduleAt(t * 3, [&]() { ++fired; });
    eq.drain();
    EXPECT_EQ(fired, 64);
    EXPECT_TRUE(eq.empty());
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(37), 37u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, CopyReplaysIdentically)
{
    Rng a(123);
    a.next();
    a.next();
    Rng b = a;   // value-copy snapshot
    std::vector<std::uint64_t> va, vb;
    for (int i = 0; i < 50; ++i)
        va.push_back(a.next());
    for (int i = 0; i < 50; ++i)
        vb.push_back(b.next());
    EXPECT_EQ(va, vb);
}

TEST(Rng, ChancePermilleRoughlyCalibrated)
{
    Rng r(5);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.chancePermille(250);
    EXPECT_NEAR(hits, 25000, 1500);
}

TEST(Stats, RegisterAndRead)
{
    StatRegistry reg;
    std::uint64_t counter = 41;
    reg.registerStat("a.counter", &counter);
    ++counter;
    EXPECT_DOUBLE_EQ(reg.get("a.counter"), 42.0);
    EXPECT_TRUE(reg.has("a.counter"));
    EXPECT_FALSE(reg.has("missing"));
    ASSERT_TRUE(reg.tryGet("a.counter").has_value());
    EXPECT_DOUBLE_EQ(*reg.tryGet("a.counter"), 42.0);
    EXPECT_FALSE(reg.tryGet("missing").has_value());
}

TEST(StatsDeathTest, GetOfUnknownNameIsFatal)
{
    // A typo in table/bench code must not fabricate a zero statistic.
    StatRegistry reg;
    std::uint64_t counter = 1;
    reg.registerStat("core0.cycles", &counter);
    EXPECT_EXIT(reg.get("core0.cycels"),
                ::testing::ExitedWithCode(1), "unknown statistic");
}

TEST(Stats, SumMatching)
{
    StatRegistry reg;
    std::uint64_t a = 1, b = 2, c = 4;
    reg.registerStat("core0.cycles.busy", &a);
    reg.registerStat("core1.cycles.busy", &b);
    reg.registerStat("core1.cycles.other", &c);
    EXPECT_DOUBLE_EQ(reg.sumMatching("core", ".busy"), 3.0);
    EXPECT_DOUBLE_EQ(reg.sumMatching("core1", ""), 6.0);
}

TEST(Stats, SnapshotSortedByName)
{
    StatRegistry reg;
    std::uint64_t x = 1;
    double y = 2.5;
    reg.registerStat("zz", &x);
    reg.registerStat("aa", &y);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first, "aa");
    EXPECT_DOUBLE_EQ(snap[0].second, 2.5);
}

TEST(Log, StrformatFormats)
{
    EXPECT_EQ(strformat("x=%d y=%s", 7, "ok"), "x=7 y=ok");
    EXPECT_EQ(strformat("plain"), "plain");
}

// ------------------------------------------------------------ ring deque

namespace {

/** Element with enough payload to catch a slot mix-up. */
struct RingItem
{
    std::uint64_t key = 0;
    std::uint32_t check = 0;
};

/** Every element, in order, through operator[] and the iterators. */
void
expectSameContents(const RingDeque<RingItem>& ring,
                   const std::deque<RingItem>& oracle)
{
    ASSERT_EQ(ring.size(), oracle.size());
    ASSERT_EQ(ring.empty(), oracle.empty());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(ring[i].key, oracle[i].key) << "index " << i;
        ASSERT_EQ(ring[i].check, oracle[i].check) << "index " << i;
    }
    std::size_t i = 0;
    for (const RingItem& item : ring) {
        ASSERT_LT(i, oracle.size());
        ASSERT_EQ(item.key, oracle[i].key) << "iterator " << i;
        ++i;
    }
    ASSERT_EQ(i, oracle.size());
    if (!oracle.empty()) {
        ASSERT_EQ(ring.front().key, oracle.front().key);
    }
}

} // namespace

TEST(RingDeque, HeadWrapsAndGrowsWhileWrapped)
{
    // Deterministic walk through the wrap: fill the first ring (8
    // slots), pop past the end so the head sits mid-ring, then push
    // until the ring doubles with its contents wrapped around.
    RingDeque<RingItem> ring;
    std::deque<RingItem> oracle;
    std::uint64_t next = 1;
    auto push = [&]() {
        const RingItem item{next, static_cast<std::uint32_t>(next * 7)};
        ++next;
        ring.push_back(item);
        oracle.push_back(item);
    };
    for (int i = 0; i < 8; ++i)
        push();
    for (int i = 0; i < 6; ++i) {
        ring.pop_front();
        oracle.pop_front();
    }
    for (int i = 0; i < 5; ++i)
        push();   // wraps the tail past slot 7
    expectSameContents(ring, oracle);
    for (int i = 0; i < 12; ++i)
        push();   // grows while wrapped
    expectSameContents(ring, oracle);
    while (!oracle.empty()) {
        ring.pop_front();
        oracle.pop_front();
        expectSameContents(ring, oracle);
    }
}

TEST(RingDeque, RandomizedAgainstStdDeque)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        RingDeque<RingItem> ring;
        std::deque<RingItem> oracle;
        std::uint64_t next = 1;
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op = rng.below(100);
            if (op < 55) {
                const RingItem item{next,
                                    static_cast<std::uint32_t>(next ^ seed)};
                ++next;
                ring.push_back(item);
                oracle.push_back(item);
            } else if (op < 93) {
                if (!oracle.empty()) {
                    ring.pop_front();
                    oracle.pop_front();
                }
            } else if (op < 95) {
                ring.clear();
                oracle.clear();
            } else if (op < 98) {
                // Presize, possibly while wrapped (a no-op when the
                // ring is already at least this large).
                ring.reserve(static_cast<std::size_t>(rng.below(80)));
            } else if (!oracle.empty()) {
                // In-place mutation through the index operator.
                const std::size_t i =
                    static_cast<std::size_t>(rng.below(oracle.size()));
                ring[i].check += 1;
                oracle[i].check += 1;
            }
            expectSameContents(ring, oracle);
            if (HasFatalFailure())
                FAIL() << "seed " << seed << " step " << step;
        }
    }
}
