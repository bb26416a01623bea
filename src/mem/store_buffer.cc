#include "mem/store_buffer.hh"

#include <algorithm>

#include "sim/annotations.hh"

namespace invisifence {

void
FifoStoreBuffer::push(Addr addr, std::uint64_t data, InstSeq seq)
{
    IF_HOT;
    IF_DBG_ASSERT(hasSpace());
    IF_DBG_ASSERT(addr == wordAlign(addr));
    entries_.push_back(Entry{addr, data, kWordBytes, seq, false});
    ++statPushes;
    statPeakOccupancy = std::max<std::uint64_t>(statPeakOccupancy,
                                                entries_.size());
}

std::optional<std::uint64_t>
FifoStoreBuffer::forward(Addr addr) const
{
    IF_HOT;
    const Addr word = wordAlign(addr);
    for (std::size_t i = entries_.size(); i-- > 0;) {
        if (entries_[i].addr == word)
            return entries_[i].data;
    }
    return std::nullopt;
}

bool
FifoStoreBuffer::containsBlock(Addr addr) const
{
    const Addr blk = blockAlign(addr);
    for (const auto& e : entries_) {
        if (blockAlign(e.addr) == blk)
            return true;
    }
    return false;
}

CoalescingStoreBuffer::StoreResult
CoalescingStoreBuffer::store(Addr addr, std::uint32_t size,
                             std::uint64_t value, bool speculative,
                             std::uint32_t ctx, InstSeq seq)
{
    IF_HOT;
    IF_DBG_ASSERT(sameBlock(addr, size));
    const Addr blk = blockAlign(addr);
    ++statStores;
    // Coalesce only when the labels match exactly: a speculative store
    // must never merge into a non-speculative entry (or vice versa), and
    // stores from different checkpoints stay separate so abort/commit of
    // one checkpoint leaves the other's data intact.
    for (auto& e : entries_) {
        if (e.blockAddr == blk && e.speculative == speculative &&
            e.ctx == ctx) {
            e.data.write(blockOffset(addr), size, value);
            ++statMerges;
            return StoreResult::Merged;
        }
    }
    if (entries_.size() >= capacity_)
        return StoreResult::Full;
    Entry e;
    e.blockAddr = blk;
    e.data.write(blockOffset(addr), size, value);
    e.speculative = speculative;
    e.ctx = ctx;
    e.firstSeq = seq;
    entries_.push_back(e);
    statPeakOccupancy = std::max<std::uint64_t>(statPeakOccupancy,
                                                entries_.size());
    return StoreResult::NewEntry;
}

MaskedBlock
CoalescingStoreBuffer::gatherBlock(Addr addr) const
{
    const Addr blk = blockAlign(addr);
    MaskedBlock out;
    for (const auto& e : entries_) {
        if (e.blockAddr == blk)
            out.merge(e.data);
    }
    return out;
}

bool
CoalescingStoreBuffer::containsBlock(Addr addr) const
{
    IF_HOT;
    const Addr blk = blockAlign(addr);
    for (const auto& e : entries_) {
        if (e.blockAddr == blk)
            return true;
    }
    return false;
}

std::optional<std::uint64_t>
CoalescingStoreBuffer::forward(Addr addr) const
{
    IF_HOT;
    // Word-local gather: overlay only the target word's bytes, oldest
    // entry first so younger stores win — same result as merging whole
    // blocks (gatherBlock) and reading one word, without the 64-byte
    // copies on every load issue.
    const Addr blk = blockAlign(addr);
    const std::uint32_t off = blockOffset(wordAlign(addr));
    const ByteMask word_mask = byteMaskFor(off, kWordBytes);
    std::uint64_t value = 0;
    std::uint32_t have = 0;
    for (const auto& e : entries_) {
        if (e.blockAddr != blk)
            continue;
        const ByteMask m = e.data.mask & word_mask;
        if (m == 0)
            continue;
        const std::uint32_t sub =
            static_cast<std::uint32_t>(m >> off) & 0xffu;
        std::uint64_t byte_mask = 0;
        for (std::uint32_t i = 0; i < 8; ++i) {
            if (sub & bitOf<std::uint32_t>(i))
                byte_mask |= std::uint64_t{0xff} << (8 * i);
        }
        value = (value & ~byte_mask) |
                (e.data.data.readWord(off) & byte_mask);
        have |= sub;
    }
    if (have == 0xffu)
        return value;
    return std::nullopt;
}

void
CoalescingStoreBuffer::flashInvalidateSpeculative()
{
    const auto spec = [](const Entry& e) { return e.speculative; };
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(), spec),
                   entries_.end());
}

void
CoalescingStoreBuffer::erase(const Entry& entry)
{
    IF_HOT;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (&*it == &entry) {
            entries_.erase(it);
            return;
        }
    }
    IF_DBG_ASSERT(false && "erase of entry not in store buffer");
}

bool
CoalescingStoreBuffer::emptyOfSpeculative() const
{
    return std::none_of(entries_.begin(), entries_.end(),
                        [](const Entry& e) { return e.speculative; });
}

bool
CoalescingStoreBuffer::emptyOfCtx(std::uint32_t ctx) const
{
    return std::none_of(entries_.begin(), entries_.end(),
                        [ctx](const Entry& e) { return e.ctx == ctx; });
}

} // namespace invisifence
