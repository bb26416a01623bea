#include "mem/cache_array.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <type_traits>

#include "sim/annotations.hh"
#include "sim/log.hh"

namespace invisifence {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @p n zeroed objects of the trivially-copyable type @p T. */
template <typename T>
T*
zeroAlloc(std::size_t n, const std::string& name)
{
    static_assert(std::is_trivially_copyable_v<T>);
    void* p = std::calloc(n, sizeof(T));
    if (p == nullptr)
        IF_FATAL("cache %s: out of memory for %zu lane entries", name.c_str(),
                 n);
    return static_cast<T*>(p);
}

} // namespace

CacheArray::CacheArray(std::uint64_t size_bytes, std::uint32_t ways,
                       std::string name, bool spec_index)
    : ways_(ways), name_(std::move(name))
{
    if (ways == 0 || size_bytes % (static_cast<std::uint64_t>(ways) *
                                   kBlockBytes) != 0) {
        IF_FATAL("cache %s: size %llu not divisible by ways*block",
                 name_.c_str(), static_cast<unsigned long long>(size_bytes));
    }
    // The MRU predictor stores the way in a byte and the LRU
    // renormalization sorts a fixed 64-slot scratch; both bound ways.
    if (ways > 64)
        IF_FATAL("cache %s: at most 64 ways supported", name_.c_str());
    const std::uint64_t sets = size_bytes / (ways * kBlockBytes);
    if (!isPow2(sets))
        IF_FATAL("cache %s: set count must be a power of two", name_.c_str());
    num_sets_ = static_cast<std::uint32_t>(sets);
    const std::size_t frames =
        static_cast<std::size_t>(num_sets_) * ways_;
    tags_.resize(frames);
    // All-zero bytes are a zero payload and generation 0.
    data_.reset(zeroAlloc<BlockData>(frames, name_));
    gen_.reset(zeroAlloc<std::uint32_t>(frames, name_));
    mru_.resize(num_sets_, 0);
    if (!spec_index)
        return;
    // Worst case every frame is marked in a context: preallocating to
    // that bound keeps the speculative index allocation-free in steady
    // state (tests/alloc_steadystate_test.cc).
    for (std::uint32_t c = 0; c < kMaxCheckpoints; ++c) {
        specFrames_[c].reserve(frames);
        specPos_[c].resize(frames, kNoFrame);
    }
    flashScratch_.reserve(frames);
}

void
CacheArray::touch(const Line& line)
{
    IF_HOT;
    IF_DBG_ASSERT(line.arr_ == this);
    if (lruCounter_ == ~std::uint32_t{0})
        renormalizeLru();
    tags_[line.frame_].lruStamp = ++lruCounter_;
}

void
CacheArray::renormalizeLru()
{
    // Compress each set's stamps to their rank (1..ways): victim
    // selection compares stamps only within a set, so preserving the
    // within-set order preserves every future LRU decision exactly.
    std::uint32_t order[64];
    IF_DBG_ASSERT(ways_ <= 64);
    for (std::uint32_t s = 0; s < num_sets_; ++s) {
        CacheTag* tags = &tags_[static_cast<std::size_t>(s) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            order[w] = w;
        std::sort(order, order + ways_,
                  [tags](std::uint32_t a, std::uint32_t b) {
                      return tags[a].lruStamp < tags[b].lruStamp;
                  });
        for (std::uint32_t r = 0; r < ways_; ++r)
            tags[order[r]].lruStamp = r + 1;
    }
    lruCounter_ = ways_;
}

CacheArray::Line
CacheArray::findVictim(Addr addr, FunctionRef<bool(const Line&)> avoid,
                       bool* forced_avoided)
{
    IF_HOT;
    const std::uint32_t base = setIndex(addr) * ways_;
    const CacheTag* tags = &tags_[base];
    if (forced_avoided)
        *forced_avoided = false;

    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!tags[w].valid())
            return {this, base + w};
    }

    std::uint32_t best = kNoFrame;
    std::uint32_t best_any = kNoFrame;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const CacheTag& tag = tags[w];
        if (best_any == kNoFrame ||
            tag.lruStamp < tags_[best_any].lruStamp) {
            best_any = base + w;
        }
        if (avoid && avoid(Line{this, base + w}))
            continue;
        if (best == kNoFrame || tag.lruStamp < tags_[best].lruStamp)
            best = base + w;
    }
    if (best != kNoFrame)
        return {this, best};
    if (forced_avoided)
        *forced_avoided = true;
    IF_DBG_ASSERT(best_any != kNoFrame);
    return {this, best_any};
}

CacheArray::Line
CacheArray::findVictim(Addr addr)
{
    return findVictim(addr, nullptr, nullptr);
}

void
CacheArray::setSpecBit(std::uint32_t frame, std::uint32_t ctx,
                       bool written)
{
    IF_HOT;
    IF_DBG_ASSERT(ctx < kMaxCheckpoints);
    IF_DBG_ASSERT(tags_[frame].valid() &&
           "speculative bit on an invalid line");
    IF_DBG_ASSERT(!specPos_[ctx].empty() &&
                  "speculative bit on an array without a speculative index");
    CacheTag& tag = tags_[frame];
    const std::uint8_t bit = bitOf<std::uint8_t>(ctx);
    if (((tag.specRead | tag.specWritten) & bit) == 0) {
        specPos_[ctx][frame] =
            static_cast<std::uint32_t>(specFrames_[ctx].size());
        hotPush(specFrames_[ctx], frame);
    }
    if (written)
        tag.specWritten |= bit;
    else
        tag.specRead |= bit;
}

void
CacheArray::clearSpecCtx(std::uint32_t frame, std::uint32_t ctx)
{
    IF_HOT;
    CacheTag& tag = tags_[frame];
    const std::uint8_t bit = bitOf<std::uint8_t>(ctx);
    if (((tag.specRead | tag.specWritten) & bit) == 0)
        return;
    tag.specRead &= static_cast<std::uint8_t>(~bit);
    tag.specWritten &= static_cast<std::uint8_t>(~bit);
    // Swap-with-back removal from the ctx index, O(1).
    const std::uint32_t pos = specPos_[ctx][frame];
    IF_DBG_ASSERT(pos != kNoFrame && specFrames_[ctx][pos] == frame);
    const std::uint32_t moved = specFrames_[ctx].back();
    specFrames_[ctx][pos] = moved;
    specPos_[ctx][moved] = pos;
    specFrames_[ctx].pop_back();
    specPos_[ctx][frame] = kNoFrame;
}

void
CacheArray::installFrame(std::uint32_t frame, Addr block_addr,
                         CoherenceState s)
{
    IF_HOT;
    CacheTag& tag = tags_[frame];
    IF_DBG_ASSERT(!tag.valid() && "installing over a live line");
    IF_DBG_ASSERT(isValidState(s));
    tag.blockAddr = blockAlign(block_addr);
    tag.state = s;
    tag.dirty = 0;
    ++gen_[frame];
    mru_[frameSet(frame)] =
        static_cast<std::uint8_t>(frame % ways_);
}

void
CacheArray::invalidateFrame(std::uint32_t frame)
{
    IF_HOT;
    CacheTag& tag = tags_[frame];
    if (isWritable(tag.state))
        ++permEpoch_;
    tag.blockAddr = kInvalidTagAddr;   // keep invalid frames unmatchable
    tag.state = CoherenceState::Invalid;
    tag.dirty = 0;
    for (std::uint32_t c = 0; c < kMaxCheckpoints; ++c)
        clearSpecCtx(frame, c);
    ++gen_[frame];
}

void
CacheArray::flashClearSpecBits(std::uint32_t ctx)
{
    IF_DBG_ASSERT(ctx < kMaxCheckpoints);
#ifndef NDEBUG
    verifySpecIndex();
#endif
    const std::uint8_t mask =
        static_cast<std::uint8_t>(~bitOf<std::uint8_t>(ctx));
    for (const std::uint32_t frame : specFrames_[ctx]) {
        tags_[frame].specRead &= mask;
        tags_[frame].specWritten &= mask;
        specPos_[ctx][frame] = kNoFrame;
    }
    specFrames_[ctx].clear();
}

void
CacheArray::flashInvalidateSpecWritten(std::uint32_t ctx)
{
    IF_DBG_ASSERT(ctx < kMaxCheckpoints);
#ifndef NDEBUG
    verifySpecIndex();
#endif
    const std::uint8_t bit = bitOf<std::uint8_t>(ctx);
    // Detach the ctx index first: invalidateFrame() below edits the
    // *other* context's index through clearSpecCtx, and must not see a
    // half-cleared entry for this one.
    flashScratch_.clear();
    for (const std::uint32_t f : specFrames_[ctx])
        hotPush(flashScratch_, f);
    for (const std::uint32_t frame : flashScratch_)
        specPos_[ctx][frame] = kNoFrame;
    specFrames_[ctx].clear();
    for (const std::uint32_t frame : flashScratch_) {
        CacheTag& tag = tags_[frame];
        const bool written = (tag.specWritten & bit) != 0;
        tag.specRead &= static_cast<std::uint8_t>(~bit);
        tag.specWritten &= static_cast<std::uint8_t>(~bit);
        if (written)
            invalidateFrame(frame);
    }
}

#ifndef NDEBUG
void
CacheArray::verifySpecIndex() const
{
    // The incremental index must agree with a full tag-lane scan — the
    // same pattern as the ROB state masks: O(1) in release,
    // re-derived from scratch in debug builds.
    for (std::uint32_t c = 0; c < kMaxCheckpoints; ++c) {
        const std::uint8_t bit = bitOf<std::uint8_t>(c);
        std::uint32_t marked = 0;
        for (std::uint32_t f = 0;
             f < static_cast<std::uint32_t>(tags_.size()); ++f) {
            const CacheTag& tag = tags_[f];
            const bool has =
                ((tag.specRead | tag.specWritten) & bit) != 0;
            if (has) {
                IF_DBG_ASSERT(tag.valid() &&
                       "speculative bit on an invalid line");
                const std::uint32_t pos = specPos_[c][f];
                IF_DBG_ASSERT(pos != kNoFrame && pos < specFrames_[c].size() &&
                       specFrames_[c][pos] == f &&
                       "spec index missing a marked frame");
                ++marked;
            } else {
                IF_DBG_ASSERT((specPos_[c].empty() ||
                               specPos_[c][f] == kNoFrame) &&
                       "spec index holds an unmarked frame");
            }
        }
        IF_DBG_ASSERT(marked == specFrames_[c].size() && "spec index drifted");
    }
}
#endif

} // namespace invisifence
