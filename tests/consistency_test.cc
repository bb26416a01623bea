/** @file Conventional implementation tests: the retirement rules of
 *  Figure 2, stall classification, and store-buffer behaviors. */

#include <gtest/gtest.h>

#include "core/invisifence.hh"
#include "test_util.hh"

using namespace invisifence;
using namespace invisifence::test;

namespace {

/** A remote-ish store miss then @p loads loads that hit. */
std::vector<ScriptOp>
storeMissThenLoads(Addr missAddr, Addr hitAddr, int loads)
{
    std::vector<ScriptOp> s;
    s.push_back(opLoad(hitAddr));       // warm the hit block
    s.push_back(opAlu(30));
    s.push_back(opStore(missAddr, 1));
    for (int i = 0; i < loads; ++i)
        s.push_back(opLoad(hitAddr));
    return s;
}

} // namespace

TEST(ConvSc, LoadsWaitForStoreMisses)
{
    auto sys = makeScripted({storeMissThenLoads(taddr(70), taddr(71), 8)},
                            ImplKind::ConvSC, SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    // The loads could not retire past the outstanding store: SB-drain
    // stall cycles must appear.
    EXPECT_GT(sys->core(0).breakdown().sbDrain, 5u);
}

TEST(ConvTso, LoadsRetirePastStoreMisses)
{
    auto scripted = storeMissThenLoads(taddr(72), taddr(73), 8);
    auto sc = makeScripted({scripted}, ImplKind::ConvSC,
                           SystemParams::small(2));
    auto tso = makeScripted({scripted}, ImplKind::ConvTSO,
                            SystemParams::small(2));
    ASSERT_TRUE(sc->runUntilDone(200000));
    ASSERT_TRUE(tso->runUntilDone(200000));
    EXPECT_LT(tso->core(0).breakdown().sbDrain,
              sc->core(0).breakdown().sbDrain);
}

TEST(ConvTso, FifoCapacityCausesSbFull)
{
    // More distinct-block stores than the FIFO holds, all behind one
    // slow head miss.
    std::vector<ScriptOp> s;
    for (std::uint32_t i = 0; i < 80; ++i)
        s.push_back(opStore(taddr(74) + i * kBlockBytes,
                            static_cast<std::uint64_t>(i)));
    auto sys = makeScripted({s}, ImplKind::ConvTSO,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(400000));
    EXPECT_GT(sys->core(0).breakdown().sbFull, 0u);
}

TEST(ConvTso, AtomicsDrainTheStoreBuffer)
{
    std::vector<ScriptOp> s;
    s.push_back(opStore(taddr(75), 1));           // miss
    s.push_back(opFetchAdd(taddr(76), 1));        // must drain first
    auto sys = makeScripted({s}, ImplKind::ConvTSO,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_GT(sys->core(0).breakdown().sbDrain, 0u);
}

TEST(ConvTso, AcquireFencesAreFree)
{
    // An acquire/release (non-full) fence behind a store miss must not
    // stall under TSO.
    std::vector<ScriptOp> with_fence;
    with_fence.push_back(opStore(taddr(77), 1));
    ScriptOp acq = opFence();
    acq.inst.fullFence = false;
    with_fence.push_back(acq);
    for (int i = 0; i < 10; ++i)
        with_fence.push_back(opAlu(1));

    auto sys = makeScripted({with_fence}, ImplKind::ConvTSO,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    // Retirement continued immediately: nearly no SB-drain cycles.
    EXPECT_LT(sys->core(0).breakdown().sbDrain, 3u);
}

TEST(ConvTso, FullFencesDrain)
{
    std::vector<ScriptOp> s;
    s.push_back(opStore(taddr(78), 1));
    s.push_back(opFence());                        // full fence
    for (int i = 0; i < 10; ++i)
        s.push_back(opAlu(1));
    auto sys = makeScripted({s}, ImplKind::ConvTSO,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_GT(sys->core(0).breakdown().sbDrain, 5u);
}

TEST(ConvRmo, StoresAndLoadsUnordered)
{
    auto sys = makeScripted({storeMissThenLoads(taddr(79), taddr(80), 8)},
                            ImplKind::ConvRMO, SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_EQ(sys->core(0).breakdown().sbDrain, 0u);
}

TEST(ConvRmo, FencesDrainEvenAcquireOnes)
{
    std::vector<ScriptOp> s;
    s.push_back(opStore(taddr(81), 1));
    ScriptOp acq = opFence();
    acq.inst.fullFence = false;
    s.push_back(acq);
    for (int i = 0; i < 10; ++i)
        s.push_back(opAlu(1));
    auto sys = makeScripted({s}, ImplKind::ConvRMO,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_GT(sys->core(0).breakdown().sbDrain, 5u);
}

TEST(ConvRmo, StoreHitsRetireDirectlyIntoL1)
{
    std::vector<ScriptOp> s;
    s.push_back(opLoad(taddr(82)));     // warm: exclusive grant
    s.push_back(opAlu(30));
    for (int i = 0; i < 10; ++i)
        s.push_back(opStore(taddr(82), static_cast<std::uint64_t>(i)));
    auto sys = makeScripted({s}, ImplKind::ConvRMO,
                            SystemParams::small(1));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_EQ(sys->agent(0).readWordL1(taddr(82)), 9u);
}

TEST(ConvRmo, AtomicWaitsForWritePermissionOnly)
{
    // Atomic to a missing block with an empty SB: stall is the block
    // fetch only (SB-drain classified), and other stores can be pending
    // without forcing a full drain.
    std::vector<ScriptOp> s;
    s.push_back(opStore(taddr(83), 1));            // miss, pending
    s.push_back(opFetchAdd(taddr(84), 1));         // other block atomic
    auto sys = makeScripted({s}, ImplKind::ConvRMO,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_TRUE(sys->core(0).done());
}

TEST(ConvAll, AtomicityOfRmw)
{
    // Two cores increment one counter 25 times each; conventional
    // implementations execute the RMW at the head with the block held
    // writable, so increments can never be lost.
    for (ImplKind kind :
         {ImplKind::ConvSC, ImplKind::ConvTSO, ImplKind::ConvRMO}) {
        std::vector<std::vector<ScriptOp>> scripts;
        for (int t = 0; t < 2; ++t) {
            std::vector<ScriptOp> s;
            for (int i = 0; i < 25; ++i)
                s.push_back(opFetchAdd(taddr(85), 1));
            scripts.push_back(std::move(s));
        }
        auto sys = makeScripted(std::move(scripts), kind);
        ASSERT_TRUE(sys->runUntilDone(2000000));
        std::uint64_t v = 0;
        for (std::uint32_t n = 0; n < sys->numCores(); ++n)
            if (sys->agent(n).l1Readable(taddr(85)))
                v = sys->agent(n).readWordL1(taddr(85));
        EXPECT_EQ(v, 50u) << implKindName(kind);
    }
}

TEST(ConvAll, OrderingStallsStallWithoutSpeculating)
{
    // A fence behind a store miss, and an atomic to a block whose store
    // still sits in the SB, are ordering stalls under every model (SC:
    // the load behind the fence). Conventional kinds must wait them out
    // as SB-drain cycles; conventional RMO is the speculation engine
    // with no checkpoint slot, so it must never open one.
    std::vector<ScriptOp> fence =
        storeMissThenLoads(taddr(88), taddr(89), 0);
    fence.push_back(opFence());
    fence.push_back(opLoad(taddr(89)));
    std::vector<ScriptOp> atomic =
        storeMissThenLoads(taddr(90), taddr(91), 0);
    atomic.push_back(opFetchAdd(taddr(90), 1));
    for (ImplKind kind :
         {ImplKind::ConvSC, ImplKind::ConvTSO, ImplKind::ConvRMO}) {
        for (const bool use_fence : {true, false}) {
            SCOPED_TRACE(std::string(implKindName(kind)) +
                         (use_fence ? " fence" : " atomic"));
            auto sys = makeScripted({use_fence ? fence : atomic}, kind,
                                    SystemParams::small(2));
            ASSERT_TRUE(sys->runUntilDone(200000));
            EXPECT_GT(sys->core(0).breakdown().sbDrain, 5u);
            if (const auto* spec =
                    dynamic_cast<const SpeculativeImpl*>(&sys->impl(0))) {
                EXPECT_EQ(spec->statSpeculations, 0u);
            }
        }
    }
}

TEST(ConvSc, StallClassificationSumsToCycles)
{
    auto sys = makeScripted({storeMissThenLoads(taddr(86), taddr(87), 4)},
                            ImplKind::ConvSC, SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    const Breakdown& b = sys->core(0).breakdown();
    EXPECT_EQ(b.total(), sys->core(0).statCycles);
}

TEST(ConvTso, PrefetchScanRerequestsAScannedEntryThatLostPermission)
{
    // The store-prefetch scan skips the prefix of FIFO entries it found
    // issued or writable. Set up SB = [X, B]: X is a head miss that
    // never completes (its owner, node 1, defers every external
    // request), and B is writable when the scan passes it. Then node 2
    // steals B, downgrading (read) or invalidating (write) node 0's
    // copy. The next scan must request B again, although it never
    // became the head.
    const Addr x = taddr(92), b = taddr(93);
    for (const bool steal_write : {true, false}) {
        SCOPED_TRACE(steal_write ? "FwdGetM steal" : "FwdGetS downgrade");
        SystemParams p = SystemParams::small(3);
        p.core.storePrefetch = true;
        std::vector<ScriptOp> s;
        // Long-latency ALU work first (about a thousand cycles), so node
        // 1 owns X before node 0 even dispatches its store to X.
        for (int i = 0; i < 400; ++i)
            s.push_back(opAlu(250));
        s.push_back(opStore(b, 1));
        s.push_back(opFence());           // B drains: node 0 holds it M
        s.push_back(opStore(x, 2));
        s.push_back(opStore(b, 3));
        auto sys = makeScripted({s, {}, {}}, ImplKind::ConvTSO, p);
        // Node 1 owns X and refuses to give it up.
        ASSERT_TRUE(sys->agent(1).request(x, true));
        sys->run(400);
        ASSERT_TRUE(sys->agent(1).l1Writable(x));
        ASSERT_FALSE(sys->agent(0).fetchOutstanding(x));
        sys->agent(1).setExternalBlocked(true);

        const auto& fifo =
            static_cast<ConventionalFifoImpl&>(sys->impl(0)).storeBuffer();
        const auto entry_b = [&]() -> const FifoStoreBuffer::Entry* {
            for (const auto& e : fifo.entries())
                if (e.addr == b)
                    return &e;
            return nullptr;
        };
        // Run until both stores sit in the SB and a few scans passed.
        for (int i = 0; i < 20000 && fifo.size() < 2; ++i)
            sys->run(1);
        ASSERT_EQ(fifo.size(), 2u);
        sys->run(20);
        ASSERT_EQ(fifo.size(), 2u);
        ASSERT_EQ(fifo.front().addr, x);
        ASSERT_NE(entry_b(), nullptr);
        EXPECT_FALSE(entry_b()->issued);
        ASSERT_TRUE(sys->agent(0).l1Writable(b));

        ASSERT_TRUE(sys->agent(2).request(b, steal_write));
        for (int i = 0; i < 2000 && sys->agent(0).l1Writable(b); ++i)
            sys->run(1);
        ASSERT_FALSE(sys->agent(0).l1Writable(b));
        sys->run(2);
        ASSERT_EQ(fifo.front().addr, x);   // X is still the blocked head
        ASSERT_NE(entry_b(), nullptr);
        EXPECT_TRUE(entry_b()->issued);
        EXPECT_TRUE(sys->agent(0).fetchOutstanding(b) ||
                    sys->agent(0).l1Writable(b));

        sys->agent(1).setExternalBlocked(false);
        ASSERT_TRUE(sys->runUntilDone(200000));
    }
}
