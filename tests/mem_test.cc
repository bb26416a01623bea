/** @file Unit tests for memory structures: blocks, cache array, victim
 *  cache, MSHRs, store buffers, functional memory. */

#include <gtest/gtest.h>

#include <vector>

#include <unordered_map>

#include "mem/block.hh"
#include "mem/cache_array.hh"
#include "mem/functional_mem.hh"
#include "mem/mshr.hh"
#include "mem/store_buffer.hh"
#include "mem/victim_cache.hh"
#include "sim/flat_map.hh"
#include "sim/rng.hh"

using namespace invisifence;

// ---------------------------------------------------------------- block

TEST(Block, WordReadWriteRoundTrip)
{
    BlockData b;
    b.writeWord(8, 0xdeadbeefcafef00dull);
    EXPECT_EQ(b.readWord(8), 0xdeadbeefcafef00dull);
    EXPECT_EQ(b.readWord(0), 0u);
}

TEST(Block, ByteMaskCoversRange)
{
    EXPECT_EQ(byteMaskFor(0, 8), 0xffull);
    EXPECT_EQ(byteMaskFor(8, 8), 0xff00ull);
    EXPECT_EQ(byteMaskFor(0, 64), ~ByteMask{0});
}

TEST(MaskedBlock, CoversAndRead)
{
    MaskedBlock m;
    EXPECT_TRUE(m.empty());
    m.write(16, 8, 0x1122334455667788ull);
    EXPECT_TRUE(m.covers(16, 8));
    EXPECT_FALSE(m.covers(8, 8));
    EXPECT_FALSE(m.covers(20, 8));
    EXPECT_EQ(m.read(16, 8), 0x1122334455667788ull);
}

TEST(MaskedBlock, ApplyOverlaysOnlyDefinedBytes)
{
    BlockData base;
    base.writeWord(0, 0xaaaaaaaaaaaaaaaaull);
    base.writeWord(8, 0xbbbbbbbbbbbbbbbbull);
    MaskedBlock m;
    m.write(8, 8, 0x1ull);
    m.applyTo(base);
    EXPECT_EQ(base.readWord(0), 0xaaaaaaaaaaaaaaaaull);
    EXPECT_EQ(base.readWord(8), 0x1ull);
}

TEST(MaskedBlock, MergeYoungerWins)
{
    MaskedBlock older, younger;
    older.write(0, 8, 111);
    younger.write(0, 8, 222);
    older.merge(younger);
    EXPECT_EQ(older.read(0, 8), 222u);
}

TEST(MaskedBlock, FullAfterWholeBlockWrite)
{
    MaskedBlock m;
    for (std::uint32_t off = 0; off < kBlockBytes; off += 8)
        m.write(off, 8, off);
    EXPECT_TRUE(m.full());
}

// ----------------------------------------------------------- cache array

namespace {

/** Install @p addr into @p c the way the agent does (victim, install,
 *  touch) and return the line. */
CacheArray::Line
install(CacheArray& c, Addr addr,
        CoherenceState state = CoherenceState::Shared)
{
    CacheArray::Line v = c.findVictim(addr);
    if (v.valid())
        v.invalidate();
    v.install(addr, state);
    c.touch(v);
    return v;
}

} // namespace

TEST(CacheArray, MissThenInsertHits)
{
    CacheArray c(4096, 2, "t");
    EXPECT_FALSE(c.lookup(0x1000));
    install(c, 0x1000, CoherenceState::Exclusive);
    ASSERT_TRUE(c.lookup(0x1000));
    EXPECT_EQ(c.lookup(0x1010), c.lookup(0x1000));   // same block
}

TEST(CacheArray, SetIndexWrapsOnSets)
{
    CacheArray c(4096, 2, "t");   // 32 sets
    EXPECT_EQ(c.numSets(), 32u);
    EXPECT_EQ(c.setIndex(0), c.setIndex(32ull * kBlockBytes));
    EXPECT_NE(c.setIndex(0), c.setIndex(kBlockBytes));
}

TEST(CacheArray, TagLaneStaysCompact)
{
    // The whole point of the split layout: a set's tags scan within one
    // or two host cache lines, block data untouched.
    EXPECT_EQ(sizeof(CacheTag), 16u);
}

TEST(CacheArray, LruVictimIsLeastRecentlyTouched)
{
    CacheArray c(4096, 2, "t");
    const Addr a = 0;
    const Addr b = 32ull * kBlockBytes;    // same set as a
    install(c, a);
    install(c, b);
    c.touch(c.lookup(a));   // b becomes LRU
    CacheArray::Line victim = c.findVictim(64ull * kBlockBytes);
    EXPECT_EQ(victim.blockAddr(), b);
}

TEST(CacheArray, VictimAvoidsPredicate)
{
    CacheArray c(4096, 2, "t");
    const Addr a = 0, b = 32ull * kBlockBytes;
    install(c, a);
    install(c, b);
    c.lookup(b).setSpecRead(0);
    c.touch(c.lookup(b));
    c.touch(c.lookup(a));   // a is MRU; b is LRU but speculative
    bool forced = false;
    CacheArray::Line victim = c.findVictim(
        64ull * kBlockBytes,
        [](const CacheArray::Line& l) { return l.speculative(); },
        &forced);
    EXPECT_FALSE(forced);
    EXPECT_EQ(victim.blockAddr(), a);
}

TEST(CacheArray, ForcedWhenAllWaysAvoided)
{
    CacheArray c(4096, 2, "t");
    const Addr a = 0, b = 32ull * kBlockBytes;
    for (Addr addr : {a, b}) {
        CacheArray::Line v =
            install(c, addr, CoherenceState::Modified);
        v.setSpecWritten(0);
    }
    bool forced = false;
    c.findVictim(
        64ull * kBlockBytes,
        [](const CacheArray::Line& l) { return l.speculative(); },
        &forced);
    EXPECT_TRUE(forced);
}

TEST(CacheArray, FlashClearSpecBits)
{
    CacheArray c(4096, 2, "t");
    CacheArray::Line v = install(c, 0, CoherenceState::Modified);
    v.setSpecRead(0);
    v.setSpecWritten(0);
    v.setSpecRead(1);
    c.flashClearSpecBits(0);
    EXPECT_FALSE(v.specRead(0));
    EXPECT_FALSE(v.specWritten(0));
    EXPECT_TRUE(v.specRead(1));    // other context untouched
    EXPECT_TRUE(v.valid());        // commit does not invalidate
}

TEST(CacheArray, FlashInvalidateOnlySpecWritten)
{
    CacheArray c(4096, 2, "t");
    install(c, 0, CoherenceState::Modified).setSpecWritten(0);
    install(c, kBlockBytes).setSpecRead(0);

    c.flashInvalidateSpecWritten(0);
    EXPECT_FALSE(c.lookup(0));              // written block invalidated
    ASSERT_TRUE(c.lookup(kBlockBytes));     // read block survives...
    EXPECT_FALSE(c.lookup(kBlockBytes).specRead(0));   // ...bit cleared
}

TEST(CacheArray, CountSpeculativeIsIncremental)
{
    CacheArray c(4096, 2, "t");
    for (int i = 0; i < 4; ++i) {
        CacheArray::Line v =
            install(c, static_cast<Addr>(i) * kBlockBytes);
        if (i < 3)
            v.setSpecRead(0);
    }
    EXPECT_EQ(c.countSpeculative(0), 3u);
    EXPECT_EQ(c.countSpeculative(1), 0u);
    c.lookup(0).setSpecWritten(1);
    EXPECT_EQ(c.countSpeculative(1), 1u);
    c.lookup(0).invalidate();               // leaves both indices
    EXPECT_EQ(c.countSpeculative(0), 2u);
    EXPECT_EQ(c.countSpeculative(1), 0u);
    c.flashClearSpecBits(0);
    EXPECT_EQ(c.countSpeculative(0), 0u);
}

TEST(CacheArray, InvalidateClearsEverything)
{
    CacheArray c(4096, 2, "t");
    CacheArray::Line l = install(c, 0, CoherenceState::Modified);
    l.setDirty(true);
    l.setSpecRead(0);
    l.setSpecWritten(1);
    l.invalidate();
    EXPECT_FALSE(l.valid());
    EXPECT_FALSE(l.dirty());
    EXPECT_FALSE(l.speculative());
    EXPECT_FALSE(c.lookup(0));
}

TEST(CacheArray, WithoutSpecIndexServesEveryNonSpeculativeOp)
{
    // The L2 is built without the speculative index and zero-allocated
    // lanes: install, lookup, victim choice, invalidation and handles
    // must all work as in the L1D, and every fresh frame reads zero.
    CacheArray c(4096, 2, "l2", /*spec_index=*/false);   // 32 sets
    for (std::uint32_t i = 0; i < 64; ++i) {
        const Addr a = static_cast<Addr>(i) * kBlockBytes;
        CacheArray::Line v = c.findVictim(a);
        ASSERT_FALSE(v.valid()) << "frame " << i << " not fresh";
        for (const std::uint8_t byte : v.data().bytes)
            ASSERT_EQ(byte, 0u) << "fresh frame data not zero";
        v.install(a, CoherenceState::Shared);
        c.touch(v);
        v.data().writeWord(0, 0x1000 + i);
    }
    for (std::uint32_t i = 0; i < 64; ++i) {
        const Addr a = static_cast<Addr>(i) * kBlockBytes;
        const CacheArray::Line l = c.lookup(a);
        ASSERT_TRUE(l);
        EXPECT_EQ(l.data().readWord(0), 0x1000u + i);
    }

    // Block 32 shares set 0 with block 0 and was touched later, so a
    // new block for set 0 evicts block 0.
    const CacheArray::Handle h0 = c.lookup(0).handle();
    const CacheArray::Handle h32 = c.lookup(32 * kBlockBytes).handle();
    CacheArray::Line victim = c.findVictim(64 * kBlockBytes);
    EXPECT_EQ(victim.blockAddr(), 0u);
    victim.invalidate();
    EXPECT_FALSE(c.resolve(h0));
    ASSERT_TRUE(c.resolve(h32));
    victim.install(64 * kBlockBytes, CoherenceState::Modified);
    EXPECT_FALSE(c.resolve(h0));
    EXPECT_FALSE(c.lookup(0));
    EXPECT_EQ(c.lookup(64 * kBlockBytes), victim);
    EXPECT_EQ(c.resolve(victim.handle()), victim);

    c.lookup(32 * kBlockBytes).invalidate();
    EXPECT_FALSE(c.resolve(h32));
    EXPECT_EQ(c.countSpeculative(0), 0u);
    EXPECT_EQ(c.countSpeculative(1), 0u);
}

// ------------------------------------------- handle/generation semantics

TEST(CacheArrayHandle, SurvivesStateAndLruChanges)
{
    CacheArray c(4096, 2, "t");
    CacheArray::Line l = install(c, 0x2000, CoherenceState::Exclusive);
    const CacheArray::Handle h = l.handle();
    l.setState(CoherenceState::Modified);
    l.setDirty(true);
    l.setSpecRead(0);
    c.touch(l);
    c.flashClearSpecBits(0);     // commit: identity unchanged
    CacheArray::Line r = c.resolve(h);
    ASSERT_TRUE(r);
    EXPECT_EQ(r.blockAddr(), blockAlign(0x2000));
    EXPECT_TRUE(r.dirty());      // reads see current line contents
}

TEST(CacheArrayHandle, InvalidateKillsHandle)
{
    CacheArray c(4096, 2, "t");
    const CacheArray::Handle h = install(c, 0x2000).handle();
    c.lookup(0x2000).invalidate();
    EXPECT_FALSE(c.resolve(h));
}

TEST(CacheArrayHandle, ReinstallDoesNotResurrectHandle)
{
    CacheArray c(4096, 1, "t");   // direct-mapped: same frame reused
    const CacheArray::Handle h = install(c, 0x2000).handle();
    c.lookup(0x2000).invalidate();
    install(c, 0x2000);           // same block, same frame, new life
    EXPECT_FALSE(c.resolve(h));   // the pin was to the old incarnation
    EXPECT_TRUE(c.resolve(c.lookup(0x2000).handle()));
}

TEST(CacheArrayHandle, VictimInstallKillsDisplacedHandle)
{
    CacheArray c(4096, 1, "t");   // 64 sets, direct-mapped
    const CacheArray::Handle h = install(c, 0).handle();
    // Same set, different block: displaces the pinned line.
    CacheArray::Line v = c.findVictim(64ull * kBlockBytes);
    ASSERT_TRUE(v.valid());
    v.invalidate();
    v.install(64ull * kBlockBytes, CoherenceState::Shared);
    EXPECT_FALSE(c.resolve(h));
}

TEST(CacheArrayHandle, FlashInvalidateKillsSpecWrittenHandle)
{
    CacheArray c(4096, 2, "t");
    CacheArray::Line w = install(c, 0, CoherenceState::Modified);
    w.setSpecWritten(0);
    CacheArray::Line r = install(c, kBlockBytes);
    r.setSpecRead(0);
    const CacheArray::Handle hw = w.handle();
    const CacheArray::Handle hr = r.handle();
    c.flashInvalidateSpecWritten(0);
    EXPECT_FALSE(c.resolve(hw));   // abort invalidated the written block
    EXPECT_TRUE(c.resolve(hr));    // read-only block kept its identity
}

TEST(CacheArrayHandle, NullHandleResolvesNull)
{
    CacheArray c(4096, 2, "t");
    EXPECT_FALSE(c.resolve(CacheArray::Handle{}));
}

TEST(CacheArrayHandle, InvalidFrameNeverResolves)
{
    // A handle pinned to a frame with no live block (an empty victim
    // frame, or taken after an invalidate bumped the generation) must
    // not resolve, even though the generation stamp matches.
    CacheArray c(4096, 2, "t");
    const CacheArray::Line empty = c.findVictim(0x3000);
    ASSERT_FALSE(empty.valid());
    EXPECT_FALSE(c.resolve(empty.handle()));

    CacheArray::Line l = install(c, 0x3000);
    l.invalidate();
    EXPECT_FALSE(c.resolve(l.handle()));   // taken after invalidation
}

// --------------------------------------- randomized reference-model test

namespace {

/** Naive oracle: the pre-split CacheLine struct-of-everything layout
 *  with O(lines) scans and 64-bit LRU stamps that never renormalize. */
struct OracleArray
{
    struct Line
    {
        Addr blockAddr = 0;
        CoherenceState state = CoherenceState::Invalid;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
        bool specRead[kMaxCheckpoints] = {false, false};
        bool specWritten[kMaxCheckpoints] = {false, false};

        bool valid() const { return isValidState(state); }
        bool
        speculative() const
        {
            return specRead[0] || specRead[1] || specWritten[0] ||
                   specWritten[1];
        }
        void
        invalidate()
        {
            state = CoherenceState::Invalid;
            dirty = false;
            for (std::uint32_t ctx = 0; ctx < kMaxCheckpoints; ++ctx)
                specRead[ctx] = specWritten[ctx] = false;
        }
    };

    std::uint32_t sets, ways;
    std::vector<Line> lines;
    std::uint64_t lruCounter = 0;

    OracleArray(std::uint32_t s, std::uint32_t w)
        : sets(s), ways(w), lines(s * w)
    {
    }

    std::uint32_t
    setIndex(Addr a) const
    {
        return static_cast<std::uint32_t>((a >> kBlockShift) &
                                          (sets - 1));
    }

    int
    lookup(Addr a) const
    {
        const Addr blk = blockAlign(a);
        const std::uint32_t base = setIndex(a) * ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (lines[base + w].valid() &&
                lines[base + w].blockAddr == blk) {
                return static_cast<int>(base + w);
            }
        }
        return -1;
    }

    int
    findVictim(Addr a, bool avoid_speculative, bool* forced)
    {
        const std::uint32_t base = setIndex(a) * ways;
        if (forced)
            *forced = false;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!lines[base + w].valid())
                return static_cast<int>(base + w);
        }
        int best = -1, best_any = -1;
        for (std::uint32_t w = 0; w < ways; ++w) {
            const Line& l = lines[base + w];
            if (best_any < 0 ||
                l.lruStamp <
                    lines[static_cast<std::size_t>(best_any)].lruStamp) {
                best_any = static_cast<int>(base + w);
            }
            if (avoid_speculative && l.speculative())
                continue;
            if (best < 0 ||
                l.lruStamp <
                    lines[static_cast<std::size_t>(best)].lruStamp) {
                best = static_cast<int>(base + w);
            }
        }
        if (best >= 0)
            return best;
        if (forced)
            *forced = true;
        return best_any;
    }

    void
    flashClear(std::uint32_t ctx)
    {
        for (Line& l : lines)
            l.specRead[ctx] = l.specWritten[ctx] = false;
    }

    void
    flashInvalidate(std::uint32_t ctx)
    {
        for (Line& l : lines) {
            if (l.specWritten[ctx])
                l.invalidate();
            l.specRead[ctx] = l.specWritten[ctx] = false;
        }
    }

    std::uint32_t
    countSpeculative(std::uint32_t ctx) const
    {
        std::uint32_t n = 0;
        for (const Line& l : lines) {
            if (l.valid() && (l.specRead[ctx] || l.specWritten[ctx]))
                ++n;
        }
        return n;
    }
};

struct ModelParam
{
    std::uint32_t ways;
    std::uint64_t seed;
    bool nearLruWrap;   //!< start the 32-bit stamp counter near its max
};

class CacheArrayModel : public ::testing::TestWithParam<ModelParam>
{
};

} // namespace

/**
 * Drive the split tag/data structure and the naive oracle through ~10k
 * mixed lookup / install / evict / spec-mark / flash / touch steps and
 * demand identical observable behavior throughout: hit/miss, victim
 * frame choice (including forced speculative evictions), per-line
 * state/dirty/spec bits, and both contexts' speculative counts. The
 * near-wrap variants force LRU-stamp renormalization mid-run, which
 * must not change any victim decision.
 */
TEST_P(CacheArrayModel, MatchesNaiveScanOracle)
{
    const auto [ways, seed, near_wrap] = GetParam();
    const std::uint32_t sets = 16;
    CacheArray fast(static_cast<std::uint64_t>(sets) * ways * kBlockBytes,
                    ways, "model");
    OracleArray oracle(sets, ways);
    if (near_wrap)
        fast.debugSetLruCounter(~std::uint32_t{0} - 700);
    Rng rng(seed);
    constexpr std::uint32_t kBlocks = 96;   // ~2-6x capacity pressure

    const auto check_line = [&](Addr a) {
        const CacheArray::Line l = fast.lookup(a);
        const int o = oracle.lookup(a);
        ASSERT_EQ(static_cast<bool>(l), o >= 0) << "addr " << a;
        if (o < 0)
            return;
        const OracleArray::Line& ol =
            oracle.lines[static_cast<std::size_t>(o)];
        EXPECT_EQ(l.handle().frame, static_cast<std::uint32_t>(o));
        EXPECT_EQ(l.blockAddr(), ol.blockAddr);
        EXPECT_EQ(l.state(), ol.state);
        EXPECT_EQ(l.dirty(), ol.dirty);
        for (std::uint32_t ctx = 0; ctx < kMaxCheckpoints; ++ctx) {
            EXPECT_EQ(l.specRead(ctx), ol.specRead[ctx]);
            EXPECT_EQ(l.specWritten(ctx), ol.specWritten[ctx]);
        }
    };

    for (int step = 0; step < 10000; ++step) {
        const Addr addr =
            static_cast<Addr>(rng.below(kBlocks)) * kBlockBytes;
        const std::uint32_t ctx = static_cast<std::uint32_t>(
            rng.below(kMaxCheckpoints));
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2: {   // install (agent-style, avoiding speculative ways)
            if (fast.lookup(addr))
                break;
            bool forced = false, oforced = false;
            CacheArray::Line v = fast.findVictim(
                addr,
                [](const CacheArray::Line& l) {
                    return l.speculative();
                },
                &forced);
            const int ov = oracle.findVictim(addr, true, &oforced);
            ASSERT_GE(ov, 0);
            OracleArray::Line& ol =
                oracle.lines[static_cast<std::size_t>(ov)];
            ASSERT_EQ(v.handle().frame, static_cast<std::uint32_t>(ov));
            ASSERT_EQ(forced, oforced);
            if (forced)
                break;   // the agent would resolve the speculation first
            if (v.valid())
                v.invalidate();
            ol.invalidate();
            const CoherenceState st = rng.below(2) == 0
                                          ? CoherenceState::Shared
                                          : CoherenceState::Exclusive;
            v.install(addr, st);
            ol.blockAddr = blockAlign(addr);
            ol.state = st;
            ol.dirty = false;
            fast.touch(v);
            ol.lruStamp = ++oracle.lruCounter;
            break;
          }
          case 3: {   // touch
            CacheArray::Line l = fast.lookup(addr);
            const int o = oracle.lookup(addr);
            ASSERT_EQ(static_cast<bool>(l), o >= 0);
            if (l) {
                fast.touch(l);
                oracle.lines[static_cast<std::size_t>(o)].lruStamp =
                    ++oracle.lruCounter;
            }
            break;
          }
          case 4: {   // spec-mark
            CacheArray::Line l = fast.lookup(addr);
            const int o = oracle.lookup(addr);
            ASSERT_EQ(static_cast<bool>(l), o >= 0);
            if (l) {
                OracleArray::Line& ol =
                    oracle.lines[static_cast<std::size_t>(o)];
                if (rng.below(2) == 0) {
                    l.setSpecRead(ctx);
                    ol.specRead[ctx] = true;
                } else {
                    l.setSpecWritten(ctx);
                    ol.specWritten[ctx] = true;
                    l.setDirty(true);
                    ol.dirty = true;
                }
            }
            break;
          }
          case 5: {   // dirty toggle + data round trip
            CacheArray::Line l = fast.lookup(addr);
            const int o = oracle.lookup(addr);
            ASSERT_EQ(static_cast<bool>(l), o >= 0);
            if (l && !l.speculative()) {
                const bool d = rng.below(2) == 0;
                l.setDirty(d);
                oracle.lines[static_cast<std::size_t>(o)].dirty = d;
                l.data().writeWord(0, addr ^ 0xabcdu);
                EXPECT_EQ(l.data().readWord(0), addr ^ 0xabcdu);
            }
            break;
          }
          case 6: {   // invalidate (external request)
            CacheArray::Line l = fast.lookup(addr);
            const int o = oracle.lookup(addr);
            ASSERT_EQ(static_cast<bool>(l), o >= 0);
            if (l) {
                l.invalidate();
                oracle.lines[static_cast<std::size_t>(o)].invalidate();
            }
            break;
          }
          case 7:     // commit
            fast.flashClearSpecBits(ctx);
            oracle.flashClear(ctx);
            break;
          case 8:     // abort
            fast.flashInvalidateSpecWritten(ctx);
            oracle.flashInvalidate(ctx);
            break;
          case 9:     // pure lookups must not disturb anything
            check_line(addr);
            check_line(addr + kBlockBytes);
            break;
        }
        for (std::uint32_t c = 0; c < kMaxCheckpoints; ++c) {
            ASSERT_EQ(fast.countSpeculative(c), oracle.countSpeculative(c))
                << "step " << step << " ctx " << c;
        }
        check_line(addr);
    }

    // Full sweep at the end: every block agrees.
    for (std::uint32_t b = 0; b < kBlocks; ++b)
        check_line(static_cast<Addr>(b) * kBlockBytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheArrayModel,
    ::testing::Values(ModelParam{1, 11, false},    // direct-mapped
                      ModelParam{1, 12, true},
                      ModelParam{2, 21, false},    // L1 shape
                      ModelParam{2, 22, true},
                      ModelParam{8, 81, false},    // L2 shape
                      ModelParam{8, 82, true}));

// ---------------------------------------------------------- victim cache

TEST(VictimCache, InsertExtractRoundTrip)
{
    VictimCache vc(4);
    vc.insert(0x4000);
    EXPECT_TRUE(vc.contains(0x4000));
    EXPECT_TRUE(vc.contains(0x4008));          // any address in the block
    EXPECT_TRUE(vc.extract(0x4000));
    EXPECT_FALSE(vc.contains(0x4000));
    EXPECT_FALSE(vc.extract(0x4000));          // removed on extract
    EXPECT_EQ(vc.size(), 0u);
}

TEST(VictimCache, FifoDisplacement)
{
    VictimCache vc(2);
    for (Addr a : {Addr{0x100 * 64}, Addr{0x200 * 64}, Addr{0x300 * 64}})
        vc.insert(a);
    EXPECT_EQ(vc.size(), 2u);
    EXPECT_FALSE(vc.contains(0x100 * 64));    // oldest displaced
    EXPECT_TRUE(vc.contains(0x200 * 64));
    EXPECT_TRUE(vc.contains(0x300 * 64));
}

TEST(VictimCache, ReinsertReplaces)
{
    VictimCache vc(3);
    vc.insert(0x40);
    vc.insert(0x80);
    vc.insert(0x40);   // replaces the first incarnation, now youngest
    EXPECT_EQ(vc.size(), 2u);
    vc.insert(0xc0);
    vc.insert(0x100);  // full: displaces the oldest, 0x80
    EXPECT_EQ(vc.size(), 3u);
    EXPECT_FALSE(vc.contains(0x80));
    EXPECT_TRUE(vc.contains(0x40));
    vc.insert(0x140);  // next oldest is the re-inserted 0x40
    EXPECT_FALSE(vc.contains(0x40));
    EXPECT_TRUE(vc.contains(0xc0));
    EXPECT_TRUE(vc.contains(0x100));
    EXPECT_TRUE(vc.contains(0x140));
}

TEST(VictimCache, InvalidateRemoves)
{
    VictimCache vc(4);
    vc.insert(0x80);
    EXPECT_TRUE(vc.invalidate(0x80));
    EXPECT_FALSE(vc.invalidate(0x80));
    EXPECT_FALSE(vc.contains(0x80));
}

TEST(VictimCache, HitMissStats)
{
    VictimCache vc(4);
    vc.insert(0xc0);
    vc.extract(0xc0);
    vc.extract(0xc0);
    EXPECT_EQ(vc.statHits, 1u);
    EXPECT_EQ(vc.statMisses, 1u);
}

// ------------------------------------------------------------------ mshr

TEST(Mshr, AllocateLookupFree)
{
    MshrFile f(2);
    Mshr* a = f.allocate(0x1000, Mshr::Kind::Fetch);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(f.lookup(0x1008), a);   // same block
    EXPECT_EQ(f.lookup(0x2000), nullptr);
    f.free(a);
    EXPECT_EQ(f.lookup(0x1000), nullptr);
    EXPECT_EQ(f.inUse(), 0u);
}

TEST(Mshr, CapacityEnforced)
{
    MshrFile f(2);
    EXPECT_NE(f.allocate(0x0, Mshr::Kind::Fetch), nullptr);
    EXPECT_NE(f.allocate(0x40, Mshr::Kind::Fetch), nullptr);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.allocate(0x80, Mshr::Kind::Fetch), nullptr);
    EXPECT_EQ(f.statFullStalls, 1u);
}

TEST(Mshr, KindsCoexistPerBlock)
{
    MshrFile f(4);
    Mshr* fetch = f.allocate(0x100, Mshr::Kind::Fetch);
    Mshr* wb = f.allocate(0x100, Mshr::Kind::Writeback);
    EXPECT_EQ(f.lookup(0x100, Mshr::Kind::Fetch), fetch);
    EXPECT_EQ(f.lookup(0x100, Mshr::Kind::Writeback), wb);
}

namespace {

/** FillWaiter that bumps *@p count; @p tag keeps records distinct so
 *  the merge dedup does not collapse them where a test counts calls. */
FillWaiter
bumpWaiter(int* count, std::uint64_t tag = 0)
{
    return {[](void* owner, std::uint64_t) {
                ++*static_cast<int*>(owner);
            },
            count, tag};
}

} // namespace

TEST(Mshr, WaitersAccumulate)
{
    MshrFile f(4);
    Mshr* m = f.allocate(0x100, Mshr::Kind::Fetch);
    int fired = 0;
    f.pushWaiter(m->readWaiters, bumpWaiter(&fired, 0));
    f.pushWaiter(m->readWaiters, bumpWaiter(&fired, 1));
    std::uint32_t idx = f.takeWaiters(m->readWaiters);
    while (idx != kNoWaiter) {
        FillWaiter cb = f.takeWaiterAndAdvance(idx);
        cb();
    }
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(m->readWaiters.empty());
}

TEST(Mshr, WaiterSlabRecyclesNodes)
{
    // Waiter nodes come from one shared free-listed slab: a second
    // burst of the same size must reuse the first burst's nodes.
    MshrFile f(4);
    for (int round = 0; round < 2; ++round) {
        Mshr* m = f.allocate(0x200, Mshr::Kind::Fetch);
        int fired = 0;
        for (int i = 0; i < 8; ++i)
            f.pushWaiter(m->readWaiters,
                         bumpWaiter(&fired, static_cast<std::uint64_t>(i)));
        std::uint32_t idx = f.takeWaiters(m->readWaiters);
        while (idx != kNoWaiter) {
            FillWaiter cb = f.takeWaiterAndAdvance(idx);
            cb();
        }
        EXPECT_EQ(fired, 8);
        f.free(m);
    }
}

// -------------------------------------------------------- FIFO store buf

TEST(FifoSb, PushPopInOrder)
{
    FifoStoreBuffer sb(4);
    sb.push(0x1000, 1, 1);
    sb.push(0x2000, 2, 2);
    EXPECT_EQ(sb.front().addr, 0x1000u);
    sb.popFront();
    EXPECT_EQ(sb.front().addr, 0x2000u);
}

TEST(FifoSb, CapacityAndSpace)
{
    FifoStoreBuffer sb(2);
    EXPECT_TRUE(sb.hasSpace());
    sb.push(0x0, 1, 1);
    sb.push(0x8, 2, 2);
    EXPECT_TRUE(sb.full());
    EXPECT_FALSE(sb.hasSpace());
}

TEST(FifoSb, ForwardYoungestMatch)
{
    FifoStoreBuffer sb(8);
    sb.push(0x1000, 11, 1);
    sb.push(0x2000, 22, 2);
    sb.push(0x1000, 33, 3);    // younger store to same word
    const auto v = sb.forward(0x1000);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 33u);
    EXPECT_FALSE(sb.forward(0x3000).has_value());
}

TEST(FifoSb, ForwardIsWordGranular)
{
    FifoStoreBuffer sb(8);
    sb.push(0x1000, 11, 1);
    EXPECT_FALSE(sb.forward(0x1008).has_value());   // next word
    EXPECT_TRUE(sb.forward(0x1004).has_value());    // same word
}

TEST(FifoSb, ContainsBlock)
{
    FifoStoreBuffer sb(8);
    sb.push(0x1008, 1, 1);
    EXPECT_TRUE(sb.containsBlock(0x1000));
    EXPECT_TRUE(sb.containsBlock(0x1038));
    EXPECT_FALSE(sb.containsBlock(0x1040));
}

TEST(FifoSb, PeakOccupancyTracked)
{
    FifoStoreBuffer sb(8);
    for (int i = 0; i < 5; ++i)
        sb.push(static_cast<Addr>(i) * 8, 0, static_cast<InstSeq>(i));
    sb.popFront();
    EXPECT_EQ(sb.statPeakOccupancy, 5u);
    EXPECT_EQ(sb.size(), 4u);
}

// -------------------------------------------------- coalescing store buf

TEST(CoalSb, MergesSameBlockSameLabel)
{
    CoalescingStoreBuffer sb(4);
    EXPECT_EQ(sb.store(0x1000, 8, 1, false, kNonSpecCtx, 1),
              CoalescingStoreBuffer::StoreResult::NewEntry);
    EXPECT_EQ(sb.store(0x1008, 8, 2, false, kNonSpecCtx, 2),
              CoalescingStoreBuffer::StoreResult::Merged);
    EXPECT_EQ(sb.size(), 1u);
}

TEST(CoalSb, NoCoalesceAcrossSpecBoundary)
{
    // Section 3.1: "the store buffer does not perform coalescing between
    // speculative and non-speculative stores for a given block."
    CoalescingStoreBuffer sb(4);
    sb.store(0x1000, 8, 1, false, kNonSpecCtx, 1);
    EXPECT_EQ(sb.store(0x1008, 8, 2, true, 0, 2),
              CoalescingStoreBuffer::StoreResult::NewEntry);
    EXPECT_EQ(sb.size(), 2u);
}

TEST(CoalSb, NoCoalesceAcrossCheckpoints)
{
    CoalescingStoreBuffer sb(4);
    sb.store(0x1000, 8, 1, true, 0, 1);
    EXPECT_EQ(sb.store(0x1008, 8, 2, true, 1, 2),
              CoalescingStoreBuffer::StoreResult::NewEntry);
    EXPECT_EQ(sb.size(), 2u);
}

TEST(CoalSb, FullWhenNoCompatibleEntry)
{
    CoalescingStoreBuffer sb(1);
    sb.store(0x1000, 8, 1, false, kNonSpecCtx, 1);
    EXPECT_EQ(sb.store(0x2000, 8, 2, false, kNonSpecCtx, 2),
              CoalescingStoreBuffer::StoreResult::Full);
    // ...but a merge into the existing entry still succeeds.
    EXPECT_EQ(sb.store(0x1010, 8, 3, false, kNonSpecCtx, 3),
              CoalescingStoreBuffer::StoreResult::Merged);
}

TEST(CoalSb, GatherOverlaysOldestToYoungest)
{
    CoalescingStoreBuffer sb(4);
    sb.store(0x1000, 8, 1, false, kNonSpecCtx, 1);
    sb.store(0x1000, 8, 2, true, 0, 2);   // younger spec entry, same word
    const MaskedBlock view = sb.gatherBlock(0x1000);
    EXPECT_EQ(view.read(0, 8), 2u);       // younger wins
}

TEST(CoalSb, ForwardRequiresFullCoverage)
{
    CoalescingStoreBuffer sb(4);
    sb.store(0x1000, 4, 0xabcd, false, kNonSpecCtx, 1);   // half a word
    EXPECT_FALSE(sb.forward(0x1000).has_value());
    sb.store(0x1004, 4, 0x1234, false, kNonSpecCtx, 2);
    EXPECT_TRUE(sb.forward(0x1000).has_value());
}

TEST(CoalSb, FlashInvalidateSpeculativeOnly)
{
    CoalescingStoreBuffer sb(8);
    sb.store(0x1000, 8, 1, false, kNonSpecCtx, 1);
    sb.store(0x2000, 8, 2, true, 0, 2);
    sb.store(0x3000, 8, 3, true, 1, 3);
    sb.flashInvalidateSpeculative();
    EXPECT_EQ(sb.size(), 1u);
    EXPECT_FALSE(sb.emptyOfCtx(kNonSpecCtx));
    EXPECT_TRUE(sb.emptyOfCtx(0));
    EXPECT_TRUE(sb.emptyOfCtx(1));
}

TEST(CoalSb, EmptyOfSpeculative)
{
    CoalescingStoreBuffer sb(8);
    sb.store(0x1000, 8, 1, false, kNonSpecCtx, 1);
    EXPECT_TRUE(sb.emptyOfSpeculative());
    sb.store(0x2000, 8, 2, true, 0, 2);
    EXPECT_FALSE(sb.emptyOfSpeculative());
}

TEST(CoalSb, EraseSpecificEntry)
{
    CoalescingStoreBuffer sb(8);
    sb.store(0x1000, 8, 1, false, kNonSpecCtx, 1);
    sb.store(0x2000, 8, 2, false, kNonSpecCtx, 2);
    sb.erase(sb.entries()[0]);
    ASSERT_EQ(sb.size(), 1u);
    EXPECT_EQ(sb.entries()[0].blockAddr, 0x2000u);
}

TEST(CoalSb, MergeStats)
{
    CoalescingStoreBuffer sb(8);
    sb.store(0x1000, 8, 1, false, kNonSpecCtx, 1);
    sb.store(0x1008, 8, 2, false, kNonSpecCtx, 2);
    sb.store(0x1010, 8, 3, false, kNonSpecCtx, 3);
    EXPECT_EQ(sb.statStores, 3u);
    EXPECT_EQ(sb.statMerges, 2u);
}

// ------------------------------------------------------ functional mem

TEST(FunctionalMem, ZeroFillDefault)
{
    FunctionalMemory m;
    EXPECT_EQ(m.readWord(0x123456789abcull & ~7ull), 0u);
    EXPECT_EQ(m.touchedBlocks(), 0u);
}

TEST(FunctionalMem, WordRoundTrip)
{
    FunctionalMemory m;
    m.writeWord(0x1008, 77);
    EXPECT_EQ(m.readWord(0x1008), 77u);
    EXPECT_EQ(m.readWord(0x1000), 0u);
    EXPECT_EQ(m.touchedBlocks(), 1u);
}

TEST(FunctionalMem, BlockRoundTrip)
{
    FunctionalMemory m;
    BlockData b;
    b.writeWord(24, 0x55);
    m.writeBlock(0x2000, b);
    EXPECT_EQ(m.readBlock(0x2010).readWord(24), 0x55u);
}

// ------------------------------------------------------------- flat map

TEST(FlatMap, InsertFindEraseBasics)
{
    FlatAddrMap<int> m(16);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(0x40), nullptr);
    bool created = false;
    m.getOrCreate(0x40, &created) = 7;
    EXPECT_TRUE(created);
    ASSERT_NE(m.find(0x40), nullptr);
    EXPECT_EQ(*m.find(0x40), 7);
    m.getOrCreate(0x40, &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.erase(0x40));
    EXPECT_FALSE(m.erase(0x40));
    EXPECT_EQ(m.find(0x40), nullptr);
    EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMap, RandomizedOracleWithGrowthAndErase)
{
    // Drive the open-addressed table and an unordered_map oracle with
    // the same interleaved insert/update/erase/clear stream, starting
    // from a deliberately tiny capacity so the table rehashes many
    // times, and with a narrow key universe so backward-shift erase
    // constantly relocates probe chains. Rare clears empty a full table
    // in place: the capacity must not change and stale values must not
    // leak into later inserts.
    FlatAddrMap<std::uint64_t> flat(4);
    std::unordered_map<Addr, std::uint64_t> oracle;
    Rng rng(20090609);
    std::uint32_t clears = 0;
    for (std::uint64_t step = 0; step < 20000; ++step) {
        const Addr key = (rng.below(512) + 1) << 6;
        const std::uint64_t op = rng.below(2000);
        if (op < 1200) {
            bool created = false;
            std::uint64_t& v = flat.getOrCreate(key, &created);
            EXPECT_EQ(created, oracle.find(key) == oracle.end());
            if (created) {
                EXPECT_EQ(v, 0u);
            }
            v = step;
            oracle[key] = step;
        } else if (op == 1999) {
            const std::size_t cap = flat.capacity();
            flat.clear();
            ++clears;
            EXPECT_EQ(flat.capacity(), cap);
            for (const auto& kv : oracle) {
                EXPECT_EQ(flat.find(kv.first), nullptr);
            }
            oracle.clear();
        } else if (op < 1600) {
            const std::uint64_t* v = flat.find(key);
            auto it = oracle.find(key);
            if (it == oracle.end()) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                EXPECT_EQ(*v, it->second);
            }
        } else {
            EXPECT_EQ(flat.erase(key), oracle.erase(key) == 1);
        }
        ASSERT_EQ(flat.size(), oracle.size());
    }
    EXPECT_GT(clears, 0u);
    // Full sweep both ways: forEach hits exactly the oracle's entries.
    std::size_t seen = 0;
    flat.forEach([&](Addr k, const std::uint64_t& v) {
        ++seen;
        auto it = oracle.find(k);
        ASSERT_NE(it, oracle.end());
        EXPECT_EQ(v, it->second);
    });
    EXPECT_EQ(seen, oracle.size());
    for (const auto& [k, v] : oracle) {
        ASSERT_NE(flat.find(k), nullptr);
        EXPECT_EQ(*flat.find(k), v);
    }
}

// -------------------------------------------------- MSHR index + dedup

TEST(MshrIndex, MatchesVectorScanModel)
{
    // A random allocate/lookup/free stream through the indexed file
    // must agree call for call with a naive vector-scan reference model
    // (which also pins the Fetch-before-Writeback order of the kindless
    // lookup and the capacity limit).
    struct Live
    {
        Addr blk;
        Mshr::Kind kind;
        Mshr* m;
    };
    constexpr std::uint32_t kCap = 8;
    MshrFile file(kCap);
    std::vector<Live> model;
    const auto modelFind = [&](Addr blk, Mshr::Kind kind) -> Mshr* {
        for (const Live& l : model) {
            if (l.blk == blk && l.kind == kind)
                return l.m;
        }
        return nullptr;
    };
    Rng rng(42);
    for (int step = 0; step < 4000; ++step) {
        const Addr blk = (rng.below(24) + 1) << 6;
        const auto kind = rng.below(2) == 0 ? Mshr::Kind::Fetch
                                            : Mshr::Kind::Writeback;
        switch (rng.below(3)) {
          case 0:
            if (modelFind(blk, kind) == nullptr) {
                Mshr* m = file.allocate(blk, kind);
                if (model.size() < kCap) {
                    ASSERT_NE(m, nullptr);
                    EXPECT_EQ(m->blockAddr, blk);
                    model.push_back({blk, kind, m});
                } else {
                    EXPECT_EQ(m, nullptr);
                }
            }
            break;
          case 1: {
            EXPECT_EQ(file.lookup(blk, kind), modelFind(blk, kind));
            Mshr* any = modelFind(blk, Mshr::Kind::Fetch);
            if (!any)
                any = modelFind(blk, Mshr::Kind::Writeback);
            EXPECT_EQ(file.lookup(blk), any);
            break;
          }
          case 2:
            for (std::size_t i = 0; i < model.size(); ++i) {
                if (model[i].blk == blk && model[i].kind == kind) {
                    file.free(model[i].m);
                    model.erase(model.begin() +
                                static_cast<std::ptrdiff_t>(i));
                    break;
                }
            }
            break;
        }
        ASSERT_EQ(file.inUse(), model.size());
        ASSERT_EQ(file.full(), model.size() == kCap);
    }
}

TEST(MshrIndex, IdenticalWaitersDedupWithStat)
{
    MshrFile f(4);
    Mshr* m = f.allocate(0x300, Mshr::Kind::Fetch);
    int fired = 0;
    // Three pushes of the same record collapse to one waiter node;
    // a distinct-arg record still chains separately.
    f.pushWaiter(m->readWaiters, bumpWaiter(&fired, 7));
    f.pushWaiter(m->readWaiters, bumpWaiter(&fired, 7));
    f.pushWaiter(m->readWaiters, bumpWaiter(&fired, 7));
    f.pushWaiter(m->readWaiters, bumpWaiter(&fired, 8));
    EXPECT_EQ(f.statWaiterDedups, 2u);
    std::uint32_t idx = f.takeWaiters(m->readWaiters);
    while (idx != kNoWaiter) {
        FillWaiter cb = f.takeWaiterAndAdvance(idx);
        cb();
    }
    EXPECT_EQ(fired, 2);
}

#ifndef NDEBUG
using MshrDeathTest = ::testing::Test;

TEST(MshrDeathTest, FreeWithLiveWaitersAsserts)
{
    // Freeing an MSHR that still holds waiter records silently lost
    // wakeups before; in debug builds it is now fatal.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            MshrFile f(4);
            Mshr* m = f.allocate(0x400, Mshr::Kind::Fetch);
            int fired = 0;
            f.pushWaiter(m->readWaiters, bumpWaiter(&fired));
            f.free(m);
        },
        "waiter");
}
#endif
