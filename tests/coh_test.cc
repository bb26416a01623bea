/** @file Coherence substrate tests: torus network, directory protocol
 *  flows, and the cache agent, driven without cores. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coh/cache_agent.hh"
#include "coh/directory.hh"
#include "coh/network.hh"
#include "mem/functional_mem.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace invisifence;

namespace {

/** FillWaiter record that sets *@p flag when the fill completes. */
FillWaiter
flagWaiter(bool* flag)
{
    return {[](void* owner, std::uint64_t) {
                *static_cast<bool*>(owner) = true;
            },
            flag, 0};
}

/** FillWaiter record that bumps *@p count. @p tag keeps otherwise
 *  identical records distinct where the MSHR merge dedup would
 *  deliberately collapse them. */
FillWaiter
countWaiter(int* count, std::uint64_t tag = 0)
{
    return {[](void* owner, std::uint64_t) {
                ++*static_cast<int*>(owner);
            },
            count, tag};
}

/** A bare multiprocessor memory system: agents + directories, no cores. */
struct Rig
{
    explicit Rig(std::uint32_t nodes, AgentParams ap = AgentParams{},
                 DirectoryParams dp = DirectoryParams{40, 5})
        : numNodes(nodes),
          net(eq, NetworkParams{nodes, 1, 20, 1}, nodes)
    {
        ap.l2Size = 64 * 1024;
        ap.l1Size = 4 * 1024;
        for (NodeId n = 0; n < nodes; ++n) {
            dirs.push_back(std::make_unique<DirectorySlice>(
                n, nodes, net, eq, mem, dp));
            agents.push_back(
                std::make_unique<CacheAgent>(n, nodes, net, eq, ap));
        }
    }

    /** Run the event queue far enough for everything to settle. */
    void
    settle(Cycle horizon = 100000)
    {
        eq.advanceTo(eq.now() + horizon);
    }

    /** Blocking request helper: returns once the block is usable. */
    void
    fetch(NodeId n, Addr addr, bool write)
    {
        bool done = false;
        ASSERT_TRUE(agents[n]->request(addr, write, flagWaiter(&done)));
        settle();
        ASSERT_TRUE(done);
    }

    std::uint32_t numNodes;
    EventQueue eq;
    FunctionalMemory mem;
    Network net;
    std::vector<std::unique_ptr<DirectorySlice>> dirs;
    std::vector<std::unique_ptr<CacheAgent>> agents;
};

} // namespace

// ---------------------------------------------------------------- network

TEST(Network, TorusHopsWrapAround)
{
    EventQueue eq;
    Network net(eq, NetworkParams{4, 4, 25, 1}, 16);
    EXPECT_EQ(net.hops(0, 0), 0u);
    EXPECT_EQ(net.hops(0, 1), 1u);
    EXPECT_EQ(net.hops(0, 3), 1u);    // wrap in x
    EXPECT_EQ(net.hops(0, 12), 1u);   // wrap in y
    EXPECT_EQ(net.hops(0, 5), 2u);
    EXPECT_EQ(net.hops(0, 10), 4u);   // opposite corner-ish
}

TEST(Network, DelayScalesWithHops)
{
    EventQueue eq;
    Network net(eq, NetworkParams{4, 4, 25, 1}, 16);
    EXPECT_EQ(net.delay(0, 0), 1u);      // local floor
    EXPECT_EQ(net.delay(0, 1), 25u);
    EXPECT_EQ(net.delay(0, 5), 50u);
}

TEST(Network, DeliversToAttachedSink)
{
    EventQueue eq;
    Network net(eq, NetworkParams{2, 1, 10, 1}, 2);
    int got = 0;
    net.attach(1, Unit::Agent,
               {[](void* ctx, const Msg& m) {
                    EXPECT_EQ(m.type, MsgType::GetS);
                    ++*static_cast<int*>(ctx);
                },
                &got});
    Msg m;
    m.type = MsgType::GetS;
    m.src = 0;
    m.dst = 1;
    m.dstUnit = Unit::Agent;
    net.send(m);
    eq.advanceTo(9);
    EXPECT_EQ(got, 0);
    eq.advanceTo(10);
    EXPECT_EQ(got, 1);
}

TEST(Network, PerPairFifoOrder)
{
    EventQueue eq;
    Network net(eq, NetworkParams{2, 1, 10, 1}, 2);
    std::vector<int> order;
    net.attach(1, Unit::Agent,
               {[](void* ctx, const Msg& m) {
                    static_cast<std::vector<int>*>(ctx)->push_back(
                        static_cast<int>(m.blockAddr));
                },
                &order});
    for (int i = 0; i < 4; ++i) {
        Msg m;
        m.blockAddr = static_cast<Addr>(i);
        m.src = 0;
        m.dst = 1;
        m.dstUnit = Unit::Agent;
        net.send(m);
    }
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --------------------------------------------------------- protocol flows

TEST(Protocol, ColdGetSGrantsExclusive)
{
    Rig rig(2);
    rig.mem.writeWord(0x1000, 99);
    rig.fetch(0, 0x1000, false);
    EXPECT_TRUE(rig.agents[0]->l1Readable(0x1000));
    EXPECT_TRUE(rig.agents[0]->l1Writable(0x1000));   // E grant when idle
    EXPECT_EQ(rig.agents[0]->readWordL1(0x1000), 99u);
    const NodeId home = homeOf(0x1000, 2);
    EXPECT_EQ(rig.dirs[home]->inspect(0x1000).state,
              DirectorySlice::DirState::Owned);
}

TEST(Protocol, SecondReaderSharesAndDowngradesOwner)
{
    Rig rig(2);
    rig.fetch(0, 0x1000, true);
    rig.agents[0]->writeWordL1(0x1000, 7, false, 0);
    rig.fetch(1, 0x1000, false);
    EXPECT_EQ(rig.agents[1]->readWordL1(0x1000), 7u);
    EXPECT_TRUE(rig.agents[0]->l1Readable(0x1000));
    EXPECT_FALSE(rig.agents[0]->l1Writable(0x1000));   // downgraded to S
    const NodeId home = homeOf(0x1000, 2);
    EXPECT_EQ(rig.dirs[home]->inspect(0x1000).state,
              DirectorySlice::DirState::Shared);
    // The FwdGetS writeback also made memory current.
    EXPECT_EQ(rig.mem.readWord(0x1000), 7u);
}

TEST(Protocol, WriterInvalidatesSharers)
{
    Rig rig(3);
    rig.fetch(0, 0x2000, false);
    rig.fetch(1, 0x2000, false);
    rig.fetch(2, 0x2000, true);
    EXPECT_TRUE(rig.agents[2]->l1Writable(0x2000));
    EXPECT_FALSE(rig.agents[0]->l1Readable(0x2000));
    EXPECT_FALSE(rig.agents[1]->l1Readable(0x2000));
    const NodeId home = homeOf(0x2000, 3);
    const auto view = rig.dirs[home]->inspect(0x2000);
    EXPECT_EQ(view.state, DirectorySlice::DirState::Owned);
    EXPECT_EQ(view.owner, 2u);
}

TEST(Protocol, DirtyDataMigratesWriterToWriter)
{
    Rig rig(2);
    rig.fetch(0, 0x3000, true);
    rig.agents[0]->writeWordL1(0x3000, 123, false, 0);
    rig.fetch(1, 0x3000, true);
    EXPECT_EQ(rig.agents[1]->readWordL1(0x3000), 123u);
    EXPECT_FALSE(rig.agents[0]->l1Readable(0x3000));
}

TEST(Protocol, UpgradeFromSharedKeepsData)
{
    Rig rig(2);
    rig.fetch(0, 0x4000, false);
    rig.fetch(1, 0x4000, false);
    rig.fetch(0, 0x4000, true);    // S -> M upgrade
    EXPECT_TRUE(rig.agents[0]->l1Writable(0x4000));
    EXPECT_FALSE(rig.agents[1]->l1Readable(0x4000));
}

TEST(Protocol, SilentEToMUpgradeThenServe)
{
    Rig rig(2);
    rig.fetch(0, 0x5000, false);              // E grant
    ASSERT_TRUE(rig.agents[0]->l1Writable(0x5000));
    rig.agents[0]->writeWordL1(0x5000, 42, false, 0);   // silent E->M
    rig.fetch(1, 0x5000, false);
    EXPECT_EQ(rig.agents[1]->readWordL1(0x5000), 42u);
}

TEST(Protocol, RequestsMergeIntoOneFetch)
{
    Rig rig(2);
    int done = 0;
    ASSERT_TRUE(rig.agents[0]->request(0x6000, false,
                                       countWaiter(&done, 0)));
    ASSERT_TRUE(rig.agents[0]->request(0x6000, false,
                                       countWaiter(&done, 1)));
    EXPECT_TRUE(rig.agents[0]->fetchOutstanding(0x6000));
    rig.settle();
    EXPECT_EQ(done, 2);
}

TEST(Protocol, ReadThenWriteWaiterUpgrades)
{
    Rig rig(2);
    rig.fetch(1, 0x7000, false);   // someone else shares first
    rig.fetch(0, 0x7000, false);
    int write_ok = 0;
    ASSERT_TRUE(rig.agents[0]->request(0x7000, true,
                                       countWaiter(&write_ok)));
    rig.settle();
    EXPECT_EQ(write_ok, 1);
    EXPECT_TRUE(rig.agents[0]->l1Writable(0x7000));
}

TEST(Protocol, DirectoryQueuesConcurrentWriters)
{
    Rig rig(4);
    int done = 0;
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(rig.agents[n]->request(0x8000, true,
                                           countWaiter(&done, n)));
    rig.settle();
    EXPECT_EQ(done, 4);
    // Exactly one writable copy at the end.
    int writable = 0;
    for (NodeId n = 0; n < 4; ++n)
        writable += rig.agents[n]->l1Writable(0x8000);
    EXPECT_EQ(writable, 1);
    const NodeId home = homeOf(0x8000, 4);
    EXPECT_TRUE(rig.dirs[home]->quiescent());
}

TEST(Protocol, VictimCacheCatchesL1Conflict)
{
    Rig rig(1);
    // 4KB 2-way L1 => 32 sets; three blocks mapping to the same set.
    const Addr a = 0x0, b = 32 * kBlockBytes, c = 64 * kBlockBytes;
    rig.fetch(0, a, false);
    rig.fetch(0, b, false);
    rig.fetch(0, c, false);   // evicts one of a/b into the VC
    EXPECT_EQ(rig.agents[0]->victimCache().size(), 1u);
    rig.fetch(0, a, false);   // back, possibly via the VC
    EXPECT_TRUE(rig.agents[0]->l1Readable(a));
}

TEST(Protocol, CleanWritebackPreservesValueInL2)
{
    Rig rig(1);
    rig.fetch(0, 0x9000, true);
    rig.agents[0]->writeWordL1(0x9000, 5, false, 0);
    ASSERT_TRUE(rig.agents[0]->l1Dirty(0x9000));
    bool cleaned = false;
    ASSERT_TRUE(rig.agents[0]->cleanWriteback(0x9000, flagWaiter(&cleaned)));
    rig.settle();
    EXPECT_TRUE(cleaned);
    EXPECT_FALSE(rig.agents[0]->l1Dirty(0x9000));
    EXPECT_EQ(rig.agents[0]->l2().lookup(0x9000).data().readWord(
                  blockOffset(0x9000)),
              5u);
}

TEST(Protocol, ExternalBlockingDefersAndReplays)
{
    Rig rig(2);
    rig.fetch(0, 0xa000, true);
    rig.agents[0]->writeWordL1(0xa000, 9, false, 0);
    rig.agents[0]->setExternalBlocked(true);
    bool done = false;
    ASSERT_TRUE(rig.agents[1]->request(0xa000, false,
                                       flagWaiter(&done)));
    rig.settle();
    EXPECT_FALSE(done);    // parked behind the blocked interface
    EXPECT_TRUE(rig.agents[0]->hasDeferred());
    rig.agents[0]->setExternalBlocked(false);
    rig.settle();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.agents[1]->readWordL1(0xa000), 9u);
}

// --------------------------------------------------- random property test

namespace {

struct RandomParam
{
    std::uint32_t nodes;
    std::uint64_t seed;
};

class ProtocolRandom : public ::testing::TestWithParam<RandomParam>
{
};

} // namespace

TEST_P(ProtocolRandom, SingleWriterInvariantUnderRandomTraffic)
{
    const auto [nodes, seed] = GetParam();
    Rig rig(nodes);
    Rng rng(seed);
    constexpr std::uint32_t kBlocks = 24;

    for (int round = 0; round < 60; ++round) {
        // Burst of random requests.
        for (int k = 0; k < 12; ++k) {
            const NodeId n =
                static_cast<NodeId>(rng.below(nodes));
            const Addr addr = static_cast<Addr>(rng.below(kBlocks)) *
                              kBlockBytes;
            const bool write = rng.below(2) == 0;
            rig.agents[n]->request(addr, write);
        }
        rig.settle(50000);

        // Invariants at quiescence: at most one writable copy per block,
        // and every directory slice idle.
        for (std::uint32_t b = 0; b < kBlocks; ++b) {
            const Addr addr = static_cast<Addr>(b) * kBlockBytes;
            int writable = 0;
            for (NodeId n = 0; n < nodes; ++n)
                writable += rig.agents[n]->l1Writable(addr) ||
                            (rig.agents[n]->l2().lookup(addr) &&
                             isWritable(
                                 rig.agents[n]->l2().lookup(addr).state()));
            ASSERT_LE(writable, 1) << "block " << b;
            if (writable == 1) {
                // No other valid copies coexist with a writer.
                int readable = 0;
                for (NodeId n = 0; n < nodes; ++n) {
                    const CacheArray::Line l2 =
                        rig.agents[n]->l2().lookup(addr);
                    readable += static_cast<int>(l2 && l2.valid());
                }
                ASSERT_EQ(readable, 1) << "block " << b;
            }
        }
        for (NodeId n = 0; n < nodes; ++n)
            ASSERT_TRUE(rig.dirs[n]->quiescent());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolRandom,
    ::testing::Values(RandomParam{2, 1}, RandomParam{2, 7},
                      RandomParam{3, 11}, RandomParam{4, 3},
                      RandomParam{4, 13}, RandomParam{8, 5},
                      RandomParam{8, 17}, RandomParam{16, 23}));

// ------------------------------- flat directory: growth vs presized

namespace {

/**
 * Two identical rigs, one whose per-block table starts deliberately
 * tiny (so it grows and rehashes under live traffic, with busy blocks'
 * slab slots riding in the moved entries) and one at the default
 * capacity that never grows, driven by the same deterministic
 * request/prime stream. Every directory slice must end bit-equivalent.
 * With @p fault_tolerant the agents tag their requests and the slices
 * keep a small dedup ring, which wraps at least twice over the run.
 */
void
checkGrowingTableMatchesPresized(bool fault_tolerant)
{
    constexpr std::uint32_t kNodes = 4;
    constexpr std::uint32_t kBlocks = 192;   // >> 16-slot initial table
    AgentParams ap;
    ap.faultTolerant = fault_tolerant;
    DirectoryParams small_dp{40, 5};
    small_dp.flatCapacity = 16;
    small_dp.faultTolerant = fault_tolerant;
    small_dp.dedupCapacity = 32;
    DirectoryParams big_dp = small_dp;
    big_dp.flatCapacity = DirectoryParams{}.flatCapacity;
    Rig small_rig(kNodes, ap, small_dp);
    Rig big_rig(kNodes, ap, big_dp);

    // Prime a slab of blocks outside the traffic range identically.
    for (std::uint32_t b = 0; b < 32; ++b) {
        const Addr addr =
            static_cast<Addr>(kBlocks + b) * kBlockBytes;
        for (Rig* rig : {&small_rig, &big_rig}) {
            DirectorySlice& d = *rig->dirs[homeOf(addr, kNodes)];
            if (b % 2 == 0) {
                SharerSet sharers = SharerSet::single(b % kNodes);
                sharers.set(0);
                d.primeShared(addr, sharers);
            } else {
                d.primeOwned(addr, b % kNodes);
            }
        }
    }

    Rng rng(20090613);
    for (int round = 0; round < 60; ++round) {
        for (int burst = 0; burst < 8; ++burst) {
            const NodeId n = static_cast<NodeId>(rng.below(kNodes));
            const Addr addr =
                static_cast<Addr>(rng.below(kBlocks)) * kBlockBytes;
            const bool write = rng.below(2) == 0;
            // Identical accept/reject decisions are part of the
            // equivalence claim.
            ASSERT_EQ(small_rig.agents[n]->request(addr, write),
                      big_rig.agents[n]->request(addr, write));
        }
        small_rig.settle(2000);
        big_rig.settle(2000);
    }
    small_rig.settle();
    big_rig.settle();

    for (std::uint32_t b = 0; b < kBlocks + 32; ++b) {
        const Addr addr = static_cast<Addr>(b) * kBlockBytes;
        const NodeId home = homeOf(addr, kNodes);
        const DirectorySlice::EntryView sv =
            small_rig.dirs[home]->inspect(addr);
        const DirectorySlice::EntryView bv =
            big_rig.dirs[home]->inspect(addr);
        ASSERT_EQ(static_cast<int>(sv.state), static_cast<int>(bv.state))
            << "block " << b;
        ASSERT_EQ(sv.sharers, bv.sharers) << "block " << b;
        ASSERT_EQ(sv.owner, bv.owner) << "block " << b;
    }
    for (NodeId n = 0; n < kNodes; ++n) {
        const DirectorySlice& sd = *small_rig.dirs[n];
        const DirectorySlice& bd = *big_rig.dirs[n];
        ASSERT_TRUE(sd.quiescent());
        ASSERT_TRUE(bd.quiescent());
        EXPECT_EQ(sd.statGetS, bd.statGetS);
        EXPECT_EQ(sd.statGetM, bd.statGetM);
        EXPECT_EQ(sd.statStaleWritebacks, bd.statStaleWritebacks);
        EXPECT_EQ(sd.statQueuedRequests, bd.statQueuedRequests);
        EXPECT_EQ(sd.statDupsSquashed, bd.statDupsSquashed);
        // Enough completed transactions that the 32-record dedup ring
        // wraps at least twice in the fault-tolerant run.
        EXPECT_GT(sd.statGetS + sd.statGetM, 2u * small_dp.dedupCapacity);
    }
}

} // namespace

TEST(DirectoryFlat, GrowingTableMatchesPresizedTable)
{
    checkGrowingTableMatchesPresized(false);
}

TEST(DirectoryFlat, GrowingTableMatchesPresizedTableFaultTolerant)
{
    checkGrowingTableMatchesPresized(true);
}

// ------------------------------------------------ dedup ring wrap-around

TEST(DirectoryDedup, RingWrapKeepsExactlyTheNewestRecords)
{
    // A fault-tolerant slice remembers its last dedupCapacity completed
    // (src, txnId) tags. Complete three times that many tagged GetS
    // transactions from four sources, so FIFO eviction erases eight
    // records out of the key table, then re-deliver a duplicate of each
    // of the four newest: all four must still be squashed with no
    // response. The keys share probe chains in the 16-slot table, so an
    // erase that dropped, or failed to shift back, a neighbouring key
    // would let duplicates through as fresh requests.
    constexpr std::uint32_t kNodes = 8;
    constexpr std::uint32_t kSrcs = 4;
    constexpr std::uint32_t kCap = 4;
    constexpr std::uint32_t kTxns = 3 * kCap;
    EventQueue eq;
    FunctionalMemory mem;
    Network net(eq, NetworkParams{kNodes, 1, 20, 1}, kNodes);
    DirectoryParams dp{40, 5};
    dp.faultTolerant = true;
    dp.dedupCapacity = kCap;
    DirectorySlice dir(0, kNodes, net, eq, mem, dp);
    int responses = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
        net.attach(n, Unit::Agent,
                   {[](void* ctx, const Msg&) {
                        ++*static_cast<int*>(ctx);
                    },
                    &responses});
    }

    std::vector<Msg> sent;
    for (std::uint32_t i = 0; i < kTxns; ++i) {
        Msg m;
        m.type = MsgType::GetS;
        // Distinct blocks homed at node 0, so every GetS is a cold
        // Idle -> Exclusive grant that completes on its own.
        m.blockAddr = static_cast<Addr>(i + 1) * kNodes * kBlockBytes;
        m.src = 1 + i % kSrcs;
        m.dst = 0;
        m.dstUnit = Unit::Directory;
        m.requester = m.src;
        m.txnId = 1 + i / kSrcs;
        dir.deliver(m);
        sent.push_back(m);
        eq.drain();
    }
    ASSERT_EQ(responses, static_cast<int>(kTxns));
    ASSERT_TRUE(dir.quiescent());
    EXPECT_EQ(dir.statDupsSquashed, 0u);

    for (std::uint32_t i = kTxns - kCap; i < kTxns; ++i)
        dir.deliver(sent[i]);
    eq.drain();
    EXPECT_EQ(dir.statDupsSquashed, static_cast<std::uint64_t>(kCap));
    EXPECT_EQ(responses, static_cast<int>(kTxns));
    EXPECT_TRUE(dir.quiescent());
}

// --------------------------------------------- local-fill event batching

TEST(CacheAgentBatch, SameTickLocalFillsShareOneEvent)
{
    Rig rig(2);
    const Addr addr = 0xb000;
    rig.fetch(0, addr, false);   // make the block locally resident

    const std::uint64_t before = rig.eq.scheduledCount();
    constexpr int kLoads = 5;
    int done = 0;
    for (int i = 0; i < kLoads; ++i)
        ASSERT_TRUE(rig.agents[0]->request(
            addr, false, countWaiter(&done, static_cast<std::uint64_t>(i))));
    // One batch event carries all five waiters.
    EXPECT_EQ(rig.eq.scheduledCount() - before, 1u);
    rig.settle();
    EXPECT_EQ(done, kLoads);
}

TEST(CacheAgentBatch, DifferentBlocksDoNotMerge)
{
    Rig rig(2);
    rig.fetch(0, 0xc000, false);
    rig.fetch(0, 0xd000, false);

    const std::uint64_t before = rig.eq.scheduledCount();
    int done = 0;
    ASSERT_TRUE(rig.agents[0]->request(0xc000, false, countWaiter(&done, 0)));
    ASSERT_TRUE(rig.agents[0]->request(0xd000, false, countWaiter(&done, 1)));
    EXPECT_EQ(rig.eq.scheduledCount() - before, 2u);
    rig.settle();
    EXPECT_EQ(done, 2);
}

// ------------------------------------- L1 tag state mirrors the L2 state

namespace {

/**
 * The invariant behind the one-probe permission checks, at @p addr on
 * @p agent: an L1-resident block is L2-resident in the same coherence
 * state, and the L1-only probes give the answers the two-level probes
 * gave (readable: in both levels; writable: in the L1 with a writable
 * L2 state).
 */
void
expectLevelsAgree(CacheAgent& agent, Addr addr)
{
    const CacheArray::Line l1 = agent.l1().lookup(addr);
    const CacheArray::Line l2 = agent.l2().lookup(addr);
    if (l1) {
        ASSERT_TRUE(l2) << "L1 block without L2 backing";
        EXPECT_EQ(l1.state(), l2.state());
    }
    const bool in_both = l1 && l2;
    EXPECT_EQ(agent.l1Readable(addr), in_both);
    EXPECT_EQ(agent.l1Writable(addr), in_both && isWritable(l2.state()));
    std::uint64_t word = 0;
    EXPECT_EQ(agent.tryReadL1(addr, &word), in_both);
}

} // namespace

TEST(TagState, FwdGetSDowngradesBothLevels)
{
    Rig rig(2);
    rig.fetch(0, 0x1000, true);
    rig.agents[0]->writeWordL1(0x1000, 7, false, 0);   // E -> M
    expectLevelsAgree(*rig.agents[0], 0x1000);
    EXPECT_EQ(rig.agents[0]->l1().lookup(0x1000).state(),
              CoherenceState::Modified);
    const std::uint64_t epoch = rig.agents[0]->l1().permEpoch();
    rig.fetch(1, 0x1000, false);   // FwdGetS to node 0
    ASSERT_TRUE(rig.agents[0]->l1().lookup(0x1000));
    EXPECT_EQ(rig.agents[0]->l1().lookup(0x1000).state(),
              CoherenceState::Shared);
    EXPECT_GT(rig.agents[0]->l1().permEpoch(), epoch);
    for (NodeId n = 0; n < 2; ++n)
        expectLevelsAgree(*rig.agents[n], 0x1000);
}

TEST(TagState, UpgradeFillRaisesBothLevels)
{
    Rig rig(2);
    rig.fetch(0, 0x4000, false);
    rig.fetch(1, 0x4000, false);
    ASSERT_EQ(rig.agents[0]->l1().lookup(0x4000).state(),
              CoherenceState::Shared);
    expectLevelsAgree(*rig.agents[0], 0x4000);
    rig.fetch(0, 0x4000, true);    // S -> E upgrade fill
    expectLevelsAgree(*rig.agents[0], 0x4000);
    EXPECT_TRUE(rig.agents[0]->l1Writable(0x4000));
    rig.agents[0]->writeWordL1(0x4000, 9, false, 0);
    EXPECT_EQ(rig.agents[0]->l2().lookup(0x4000).state(),
              CoherenceState::Modified);
    for (NodeId n = 0; n < 2; ++n)
        expectLevelsAgree(*rig.agents[n], 0x4000);
}

TEST(TagState, DirtyL1EvictionKeepsLevelsInStep)
{
    Rig rig(1);
    // 4 KB 2-way L1: 32 sets, so these three blocks share one set.
    const Addr a = 0x0, b = 32 * kBlockBytes, c = 64 * kBlockBytes;
    rig.fetch(0, a, true);
    rig.agents[0]->writeWordL1(a, 11, false, 0);
    ASSERT_TRUE(rig.agents[0]->l1Dirty(a));
    rig.fetch(0, b, false);
    rig.fetch(0, c, false);        // evicts dirty a (the LRU way)
    EXPECT_FALSE(rig.agents[0]->l1().lookup(a));
    ASSERT_TRUE(rig.agents[0]->l2().lookup(a));
    EXPECT_EQ(rig.agents[0]->l2().lookup(a).state(),
              CoherenceState::Modified);
    EXPECT_EQ(rig.agents[0]->l2().lookup(a).data().readWord(0), 11u);
    for (Addr x : {a, b, c})
        expectLevelsAgree(*rig.agents[0], x);
    rig.fetch(0, a, false);        // refill from the L2: M, clean
    EXPECT_EQ(rig.agents[0]->l1().lookup(a).state(),
              CoherenceState::Modified);
    EXPECT_FALSE(rig.agents[0]->l1Dirty(a));
    EXPECT_EQ(rig.agents[0]->readWordL1(a), 11u);
    for (Addr x : {a, b, c})
        expectLevelsAgree(*rig.agents[0], x);
}

TEST(TagState, L2EvictionPurgesTheL1Copy)
{
    Rig rig(1);
    // 64 KB 8-way L2: 128 sets, so blocks 8 KB apart share one L2 set
    // (and one L1 set).
    constexpr Addr kStride = 128 * kBlockBytes;
    for (std::uint32_t i = 0; i < 8; ++i)
        rig.fetch(0, i * kStride, true);
    // Block 0 is the L2's LRU line. Bring it back into the L1 (an L2
    // hit does not touch the L2's LRU order) and dirty it there.
    rig.fetch(0, 0, true);
    rig.agents[0]->writeWordL1(0, 21, false, 0);
    ASSERT_TRUE(rig.agents[0]->l1Dirty(0));
    const std::uint64_t epoch = rig.agents[0]->l1().permEpoch();
    rig.fetch(0, 8 * kStride, false);   // L2 victim: block 0
    EXPECT_FALSE(rig.agents[0]->l2().lookup(0));
    EXPECT_FALSE(rig.agents[0]->l1().lookup(0));
    EXPECT_GT(rig.agents[0]->l1().permEpoch(), epoch);
    // The dirty L1 data went home with the writeback.
    EXPECT_EQ(rig.mem.readWord(0), 21u);
    for (std::uint32_t i = 0; i <= 8; ++i)
        expectLevelsAgree(*rig.agents[0], i * kStride);
}
