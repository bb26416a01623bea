/**
 * @file
 * Reorder buffer entry and container.
 *
 * Loads live in the ROB itself (entries with a bound value act as the
 * load queue for snoop-based in-window speculation); stores execute their
 * memory side at retirement, so no separate store queue is modeled.
 *
 * Alongside the entries the ROB keeps three age-indexed state masks
 * (bit i describes the entry at index i, 0 = head): pending-complete,
 * pending-dispatch and bound-load. The core sets and clears bits at
 * every status transition; the ROB keeps them aligned with the window
 * as it retires, squashes and clears. The per-tick execute scan, the
 * fast-forward readiness query and the invalidation snoop visit only
 * set bits, in age order, instead of striding the whole window.
 */

#ifndef INVISIFENCE_CPU_ROB_HH
#define INVISIFENCE_CPU_ROB_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "cpu/instruction.hh"
#include "cpu/program.hh"
#include "sim/annotations.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace invisifence {

/** Context value meaning "not part of any speculation". */
constexpr std::uint32_t kNoSpecCtx = 0xffffffffu;

/** One in-flight instruction. Core::dispatchStage writes every field
 *  in place; a field added here must be initialised there too. */
struct RobEntry
{
    enum class Status : std::uint8_t
    {
        Dispatched,  //!< waiting to issue to memory
        Issued,      //!< executing; completes at readyAt or via fill
        Done,        //!< result bound; eligible to retire
    };

    Instruction inst{};
    InstSeq seq = 0;
    Status status = Status::Dispatched;
    std::uint64_t result = 0;
    bool valueBound = false;    //!< result holds real data (LQ snooping)
    bool prefetched = false;    //!< store/atomic write-permission prefetch
    Cycle readyAt = 0;
    bool specMarked = false;    //!< set a speculatively-read bit at execute
    std::uint32_t specCtx = kNoSpecCtx;  //!< checkpoint the bit belongs to
    /** Load issue blocked on this unresolved older atomic (0 = none):
     *  while that producer stays unresolved the forwarding scan would
     *  repeat the same walk to the same answer, so it is skipped. */
    InstSeq waitSeq = 0;
    /** Store-likes only: seq of the next-older in-window store-like to
     *  the same word at dispatch time (0 = none). Retirement leaves
     *  the link in place — a chain hop to a retired seq means every
     *  older same-word store has retired too, ending the walk. */
    InstSeq prevSameWord = 0;
    /** An MSHR-full rejection was already counted for the current issue
     *  episode (cleared when the request is accepted), so retry loops
     *  count stall episodes, not retries — identically in the legacy
     *  and fast-forward tick loops. */
    bool mshrStallNoted = false;
};

static_assert(std::is_trivially_copyable_v<RobEntry>,
              "RobEntry must stay POD: the ROB is a preallocated ring");

/**
 * Fixed-width bitmask over ROB indices (bit i = the entry at index i).
 * Two words cover every modelled window (Figure 6's ROB holds 96);
 * Rob refuses larger capacities at construction.
 */
class RobMask
{
  public:
    static constexpr std::size_t kWords = 2;
    static constexpr std::size_t kBits = kWords * 64;

    void set(std::size_t i) { w_[i / 64] |= bit(i); }
    void reset(std::size_t i) { w_[i / 64] &= ~bit(i); }
    bool test(std::size_t i) const { return (w_[i / 64] & bit(i)) != 0; }

    bool none() const { return (w_[0] | w_[1]) == 0; }

    std::uint32_t
    count() const
    {
        return static_cast<std::uint32_t>(std::popcount(w_[0]) +
                                          std::popcount(w_[1]));
    }

    /** Lowest set index at or after @p from; kBits when there is none. */
    std::size_t
    next(std::size_t from) const
    {
        for (std::size_t w = from / 64; w < kWords; ++w) {
            std::uint64_t bits = w_[w];
            if (w == from / 64)
                bits &= ~std::uint64_t{0} << (from % 64);
            if (bits != 0)
                return w * 64 + static_cast<std::size_t>(
                                    std::countr_zero(bits));
        }
        return kBits;
    }

    /** Retire index 0: every younger bit moves one index older. */
    void
    popFront()
    {
        w_[0] = (w_[0] >> 1) | (w_[1] << 63);
        w_[1] >>= 1;
    }

    /** Clear every bit at index @p n and above. */
    void
    truncate(std::size_t n)
    {
        for (std::size_t w = 0; w < kWords; ++w) {
            const std::size_t lo = w * 64;
            if (n <= lo)
                w_[w] = 0;
            else if (n < lo + 64)
                w_[w] &= ~(~std::uint64_t{0} << (n - lo));
        }
    }

    void clear() { w_[0] = w_[1] = 0; }

    friend RobMask
    operator|(const RobMask& a, const RobMask& b)
    {
        RobMask m;
        m.w_[0] = a.w_[0] | b.w_[0];
        m.w_[1] = a.w_[1] | b.w_[1];
        return m;
    }

  private:
    static_assert(kWords == 2, "none/count/popFront/clear/| spell out "
                                "exactly two words");

    static std::uint64_t
    bit(std::size_t i)
    {
        return bitOf<std::uint64_t>(static_cast<std::uint32_t>(i % 64));
    }

    std::uint64_t w_[kWords] = {};
};

/**
 * In-order window of RobEntry: a fixed ring over preallocated slots.
 *
 * The previous std::deque representation allocated a chunk per entry
 * (RobEntry is larger than a deque node), putting a malloc/free pair on
 * every dispatch/retire — the per-instruction hot path. The ring is
 * allocated once at construction and recycled forever.
 *
 * The per-entry program snapshot (64 bytes, read only at retirement
 * and on rollbacks) lives in a parallel cold lane, so the per-tick
 * execute/forwarding/snoop scans stride hot fields only — the same
 * split-lane layout as the cache arrays.
 */
class Rob
{
  public:
    explicit Rob(std::uint32_t capacity)
        : capacity_(capacity), slots_(capacity), snaps_(capacity)
    {
        if (capacity > RobMask::kBits)
            IF_FATAL("ROB of %u entries exceeds the %zu-entry state masks",
                     capacity, RobMask::kBits);
    }

    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::uint32_t capacity() const { return capacity_; }

    RobEntry& head() { return slots_[head_]; }
    const RobEntry& head() const { return slots_[head_]; }

    RobEntry&
    push()
    {
        return slots_[slot(size_++)];
    }

    void
    popHead()
    {
        ++head_;
        if (head_ >= capacity_)
            head_ = 0;
        --size_;
        pendComplete_.popFront();
        pendDispatch_.popFront();
        boundLoad_.popFront();
    }

    /** Remove every entry strictly younger than index @p idx. */
    void
    squashAfter(std::size_t idx)
    {
        size_ = idx + 1;
        pendComplete_.truncate(size_);
        pendDispatch_.truncate(size_);
        boundLoad_.truncate(size_);
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
        pendComplete_.clear();
        pendDispatch_.clear();
        boundLoad_.clear();
    }

    /** @{ Age-indexed state masks, kept by the core at each status
     *  transition: pending-complete is Issued with a bound value (waits
     *  for readyAt), pending-dispatch is a Dispatched load-like (waits
     *  to issue), bound-load is a load-like with a bound value (the
     *  load queue the invalidation snoop searches). Bits at or past
     *  size() are always clear. */
    RobMask& pendComplete() { return pendComplete_; }
    RobMask& pendDispatch() { return pendDispatch_; }
    RobMask& boundLoad() { return boundLoad_; }
    const RobMask& pendComplete() const { return pendComplete_; }
    const RobMask& pendDispatch() const { return pendDispatch_; }
    const RobMask& boundLoad() const { return boundLoad_; }
    /** @} */

    RobEntry& at(std::size_t i) { return slots_[slot(i)]; }
    const RobEntry& at(std::size_t i) const { return slots_[slot(i)]; }

    /** Cold-lane program snapshot of the entry at index @p i ("program
     *  state just after this fetch"). */
    ProgSnapshot& snapAt(std::size_t i) { return snaps_[slot(i)]; }
    const ProgSnapshot& snapAt(std::size_t i) const
    {
        return snaps_[slot(i)];
    }

    /** Snapshot slot of the most recently pushed entry. */
    ProgSnapshot& lastSnap() { return snaps_[slot(size_ - 1)]; }

    /** Index of the entry with sequence number @p seq, or -1.
     *  In-window seqs are strictly increasing (dispatch appends rising
     *  numbers; squashes truncate the tail — leaving gaps, so offsets
     *  can't be computed directly), which makes a binary search exact:
     *  O(log robSize) instead of the old linear walk on every fill
     *  callback. */
    std::ptrdiff_t
    indexOf(InstSeq seq) const
    {
        std::size_t lo = 0, hi = size_;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (at(mid).seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo < size_ && at(lo).seq == seq)
            return static_cast<std::ptrdiff_t>(lo);
        return -1;
    }

  private:
    /** Ring index without an integer division: i < capacity always. */
    std::size_t
    slot(std::size_t i) const
    {
        const std::size_t s = head_ + i;
        return s < capacity_ ? s : s - capacity_;
    }

    std::uint32_t capacity_;
    std::vector<RobEntry> slots_;
    std::vector<ProgSnapshot> snaps_;   //!< cold lane, parallel to slots_
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    RobMask pendComplete_;
    RobMask pendDispatch_;
    RobMask boundLoad_;
};

} // namespace invisifence

#endif // INVISIFENCE_CPU_ROB_HH
