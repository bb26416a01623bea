/** @file Core pipeline tests: dispatch/retire, forwarding, squash and
 *  replay, journaling, halting. Single- and dual-core scripted systems,
 *  plus the ROB's age-indexed state masks against a naive model. */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "cpu/rob.hh"
#include "sim/rng.hh"
#include "test_util.hh"

using namespace invisifence;
using namespace invisifence::test;

TEST(CorePipeline, AluStreamRetiresAtFullWidth)
{
    std::vector<ScriptOp> ops;
    for (int i = 0; i < 400; ++i)
        ops.push_back(opAlu(1));
    auto sys = makeScripted({ops}, ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    // 400 single-cycle ops on a 4-wide core: ~100 cycles + small ramp.
    EXPECT_LT(sys->now(), 140u);
    EXPECT_EQ(sys->core(0).statRetired, 400u);
}

TEST(CorePipeline, LoadReturnsStoredValue)
{
    auto sys = makeScripted(
        {{opStore(taddr(0), 321), opLoad(taddr(0))}}, ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(0)), 321u);
}

TEST(CorePipeline, InRobForwardingBeatsTheCache)
{
    // The store has not retired when the load issues; the value must
    // come from the window.
    auto sys = makeScripted(
        {{opStore(taddr(1), 5), opLoad(taddr(1)), opLoad(taddr(1))}},
        ImplKind::ConvSC);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(1)), 5u);
    EXPECT_GE(sys->core(0).statLoadForwards, 1u);
}

TEST(CorePipeline, StoreBufferForwardingUnderTso)
{
    // Under TSO the store sits in the FIFO SB while the load retires:
    // classic same-core store-to-load forwarding.
    auto sys = makeScripted(
        {{opStore(taddr(2), 77),
          opAlu(1), opAlu(1), opAlu(1), opAlu(1), opAlu(1), opAlu(1),
          opAlu(1), opAlu(1), opAlu(1), opAlu(1), opAlu(1), opAlu(1),
          opLoad(taddr(2))}},
        ImplKind::ConvTSO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(2)), 77u);
}

TEST(CorePipeline, SpinLoadEventuallyObservesFlag)
{
    auto sys = makeScripted(
        {{opStore(taddr(3), 1)},
         {opSpinUntilEq(taddr(3), 1), opLoad(taddr(3))}},
        ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_EQ(lastLoadOf(*sys, 1, taddr(3)), 1u);
}

TEST(CorePipeline, SpinMispredictsUntilSatisfied)
{
    // Thread 1 spins while thread 0 delays: at least one mispredict
    // (spin predicted the flag ready before it was).
    std::vector<ScriptOp> t0;
    for (int i = 0; i < 100; ++i)
        t0.push_back(opAlu(4));
    t0.push_back(opStore(taddr(4), 1));
    auto sys = makeScripted({t0, {opSpinUntilEq(taddr(4), 1)}},
                            ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_GE(sys->core(1).statMispredicts, 1u);
}

TEST(CorePipeline, CasSucceedsAndWrites)
{
    auto sys = makeScripted(
        {{opStore(taddr(5), 10), opCas(taddr(5), 10, 20),
          opLoad(taddr(5))}},
        ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(5)), 20u);
    EXPECT_EQ(sys->memory().readWord(taddr(5)), 0u);   // still cached
}

TEST(CorePipeline, FailedCasWritesNothing)
{
    auto sys = makeScripted(
        {{opStore(taddr(6), 10), opCas(taddr(6), 99, 20),
          opLoad(taddr(6))}},
        ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(6)), 10u);
}

TEST(CorePipeline, FetchAddAccumulates)
{
    auto sys = makeScripted(
        {{opFetchAdd(taddr(7), 3), opFetchAdd(taddr(7), 4),
          opLoad(taddr(7))}},
        ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(7)), 7u);
}

TEST(CorePipeline, JournalRecordsCommittedMemOpsInOrder)
{
    auto sys = makeScripted(
        {{opStore(taddr(8), 1), opLoad(taddr(8)), opFence(),
          opStore(taddr(9), 2)}},
        ImplKind::ConvSC);
    ASSERT_TRUE(sys->runUntilDone(100000));
    const auto& j = sys->core(0).journal();
    ASSERT_EQ(j.size(), 3u);   // fences are not memory ops
    EXPECT_EQ(j[0].type, OpType::Store);
    EXPECT_EQ(j[1].type, OpType::Load);
    EXPECT_EQ(j[1].result, 1u);
    EXPECT_EQ(j[2].addr, wordAlign(taddr(9)));
}

TEST(CorePipeline, DoneRequiresDrainedStoreBuffer)
{
    auto sys = makeScripted({{opStore(taddr(10), 1)}},
                            ImplKind::ConvTSO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_TRUE(sys->core(0).done());
    // The store made it into the cache hierarchy.
    EXPECT_TRUE(sys->agent(0).l1Writable(taddr(10)));
    EXPECT_EQ(sys->agent(0).readWordL1(taddr(10)), 1u);
}

TEST(CorePipeline, HaltedEmptyProgramFinishesImmediately)
{
    auto sys = makeScripted({{}}, ImplKind::ConvRMO);
    EXPECT_TRUE(sys->runUntilDone(1000));
}

TEST(CorePipeline, DeterministicAcrossIdenticalRuns)
{
    const auto run = []() {
        std::vector<ScriptOp> t0, t1;
        for (std::uint32_t i = 0; i < 50; ++i) {
            t0.push_back(opStore(taddr(11) + (i % 7) * kBlockBytes,
                                 static_cast<std::uint64_t>(i)));
            t1.push_back(opLoad(taddr(11) + (i % 5) * kBlockBytes));
        }
        auto sys = makeScripted({t0, t1}, ImplKind::ConvTSO);
        sys->runUntilDone(200000);
        return sys->now();
    };
    EXPECT_EQ(run(), run());
}

TEST(CorePipeline, LoadQueueSnoopSquashesStaleLoad)
{
    // Core 1 reads X twice with work in between; core 0 writes X in the
    // middle. Any in-window reordering that read stale data must be
    // squashed, so the two loads never observe "new then old".
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        std::vector<ScriptOp> t0;
        for (std::uint64_t i = 0; i < 10 + seed * 7; ++i)
            t0.push_back(opAlu(2));
        t0.push_back(opStore(taddr(12), 1));
        std::vector<ScriptOp> t1 = {opLoad(taddr(12)), opAlu(8),
                                    opLoad(taddr(12))};
        auto sys = makeScripted({t0, t1}, ImplKind::ConvSC);
        ASSERT_TRUE(sys->runUntilDone(200000));
        const auto& j = sys->core(1).journal();
        std::vector<std::uint64_t> loads;
        for (const auto& r : j)
            if (r.type == OpType::Load)
                loads.push_back(r.result);
        ASSERT_EQ(loads.size(), 2u);
        EXPECT_FALSE(loads[0] == 1 && loads[1] == 0)
            << "coherence order violated (seed " << seed << ")";
    }
}

namespace {

/**
 * Randomized ROB mask oracle: push, popHead, squashAfter, clear and
 * per-bit set/reset, with the ring's head wrapping many times, checked
 * after every step against a per-index model of the window. Each
 * mask's next() from every start index, count() and none() must agree.
 */
void
runRobMaskOracle(std::uint32_t capacity, std::uint64_t seed)
{
    Rob rob(capacity);
    // model[i][m]: bit of mask m for the entry at index i (0 = head).
    std::vector<std::array<bool, 3>> model;
    std::vector<InstSeq> seqs;
    InstSeq next_seq = 1;
    const auto mask = [&rob](std::size_t m) -> RobMask& {
        return m == 0 ? rob.pendComplete()
                      : m == 1 ? rob.pendDispatch() : rob.boundLoad();
    };
    Rng rng(seed);
    std::uint64_t pops = 0, deep_steps = 0;
    for (int step = 0; step < 6000; ++step) {
        const std::uint64_t op = rng.below(1000);
        if (op < 450) {
            if (!rob.full()) {
                rob.push().seq = next_seq;
                seqs.push_back(next_seq++);
                model.push_back({false, false, false});
            }
        } else if (op < 650) {
            if (!rob.empty()) {
                ++pops;
                rob.popHead();
                seqs.erase(seqs.begin());
                model.erase(model.begin());
            }
        } else if (op < 653) {
            if (!rob.empty()) {
                const std::size_t idx = rng.below(rob.size());
                rob.squashAfter(idx);
                seqs.resize(idx + 1);
                model.resize(idx + 1);
            }
        } else if (op < 654) {
            rob.clear();
            seqs.clear();
            model.clear();
        } else if (!rob.empty()) {
            const std::size_t i = rng.below(rob.size());
            const std::size_t m = rng.below(3);
            const bool value = op < 880;
            if (value)
                mask(m).set(i);
            else
                mask(m).reset(i);
            model[i][m] = value;
        }

        ASSERT_EQ(rob.size(), model.size()) << "step " << step;
        if (rob.size() > 64)
            ++deep_steps;
        for (std::size_t i = 0; i < seqs.size(); ++i)
            ASSERT_EQ(rob.at(i).seq, seqs[i]) << "step " << step;
        for (std::size_t m = 0; m < 3; ++m) {
            std::uint32_t count = 0;
            for (const auto& bits : model)
                count += bits[m] ? 1u : 0u;
            ASSERT_EQ(mask(m).count(), count)
                << "mask " << m << " step " << step;
            ASSERT_EQ(mask(m).none(), count == 0)
                << "mask " << m << " step " << step;
            // Naive next(): walk down from kBits so each start index
            // reuses the answer for the one above it.
            std::size_t expect = RobMask::kBits;
            for (std::size_t from = RobMask::kBits + 1; from-- > 0;) {
                if (from < model.size() && model[from][m])
                    expect = from;
                ASSERT_EQ(mask(m).next(from), expect)
                    << "mask " << m << " from " << from << " step "
                    << step;
            }
        }
    }
    // The walk must reach the second mask word and wrap the ring.
    EXPECT_GT(deep_steps, 1000u);
    EXPECT_GT(pops, 2u * capacity);
}

} // namespace

TEST(RobMasks, MatchNaiveModelAt96Entries)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runRobMaskOracle(96, seed);
}

TEST(RobMasks, MatchNaiveModelAt128Entries)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runRobMaskOracle(128, seed);
}

TEST(RobMasksDeathTest, CapacityPastMaskWidthIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(Rob rob(RobMask::kBits + 1), ::testing::ExitedWithCode(1),
                "state masks");
}
