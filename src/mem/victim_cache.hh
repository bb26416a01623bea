/**
 * @file
 * Small fully-associative victim cache (Figure 6: 16 entries next to L1).
 *
 * Holds non-speculative blocks evicted from the L1 for capacity/conflict
 * reasons so a quick re-reference refills at victim-cache latency rather
 * than the L2's. Speculative blocks are never placed here: they must not
 * escape the L1 (Section 3.2, violation detection), so their evictions
 * force a commit or abort instead.
 *
 * The model keeps tags only. The victim cache is inclusive in the L2,
 * the L1 eviction syncs any dirty data into the L2 line first, and a
 * victim-cache hit refills the L1 from that L2 line — so a payload or
 * state kept here would be a copy nobody reads. What the victim cache
 * decides is a refill's latency, and for that its tags are enough.
 */

#ifndef INVISIFENCE_MEM_VICTIM_CACHE_HH
#define INVISIFENCE_MEM_VICTIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace invisifence {

/** FIFO-replacement fully-associative victim buffer (tags only). */
class VictimCache
{
  public:
    explicit VictimCache(std::uint32_t entries) : capacity_(entries)
    {
        // Preallocated; nothing allocates after construction.
        tags_.reserve(entries);
    }

    /**
     * Insert @p block_addr as the youngest entry. A re-inserted block
     * replaces its previous incarnation; a full cache drops its oldest
     * entry (clean by construction: the L2 holds its data).
     */
    void insert(Addr block_addr);

    /** Find and remove the entry for @p addr; true when present. */
    bool extract(Addr addr);

    /** Presence probe. */
    bool
    contains(Addr addr) const
    {
        return indexOf(addr) >= 0;
    }

    /** Remove the entry for @p addr if present (invalidation). */
    bool invalidate(Addr addr);

    std::size_t size() const { return tags_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    std::uint64_t statHits = 0;
    std::uint64_t statMisses = 0;

  private:
    /** Age position of @p addr's entry (oldest first), or -1. */
    std::ptrdiff_t indexOf(Addr addr) const;
    void eraseAt(std::size_t i);

    std::uint32_t capacity_;
    std::vector<Addr> tags_;   //!< block addresses, oldest first
};

} // namespace invisifence

#endif // INVISIFENCE_MEM_VICTIM_CACHE_HH
