/**
 * @file
 * Consistency-model implementations (Figure 2).
 *
 * A ConsistencyImpl owns the store buffer organization and the retirement
 * rules of one memory-model implementation. The Core is model-agnostic:
 * it asks the impl whether the head instruction may retire (and how to
 * classify the stall if not), delegates the memory side effects of
 * retirement, and reports executed loads. Each impl is also the
 * CoherenceListener of its cache agent.
 *
 * This file provides the conventional SC and TSO implementations
 * (ConventionalFifoImpl), which share a word-granularity FIFO SB:
 *  - SC:  loads stall at retire until the SB is empty.
 *  - TSO: loads forward from the SB; stores stall when the SB is full;
 *    atomics and full fences drain the SB.
 *
 * Conventional RMO (block coalescing SB; store hits retire into the L1;
 * fences drain the SB; atomics wait for write permission) is the
 * speculation engine in src/core with zero checkpoints, configured by
 * makeImpl. The speculative implementations (InvisiFence, ASO) live
 * there too.
 */

#ifndef INVISIFENCE_CPU_CONSISTENCY_HH
#define INVISIFENCE_CPU_CONSISTENCY_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "coh/cache_agent.hh"
#include "coh/listener.hh"
#include "cpu/accounting.hh"
#include "cpu/rob.hh"
#include "mem/store_buffer.hh"
#include "sim/types.hh"

namespace invisifence {

class Core;

/** The three consistency models evaluated in the paper. */
enum class Model : std::uint8_t { SC, TSO, RMO };

constexpr const char*
modelName(Model m)
{
    switch (m) {
      case Model::SC: return "sc";
      case Model::TSO: return "tso";
      case Model::RMO: return "rmo";
    }
    return "?";
}

/** Verdict on retiring the head instruction this cycle. */
struct RetireCheck
{
    bool ok = true;
    StallKind stall = StallKind::None;
};

/** Base class of all memory-model implementations. */
class ConsistencyImpl : public CoherenceListener
{
  public:
    ConsistencyImpl(std::string name, Core& core, CacheAgent& agent);
    ~ConsistencyImpl() override = default;

    const std::string& name() const { return name_; }

    /** Per-cycle work: store-buffer drain, commit checks, timeouts. */
    virtual void tick() {}

    /** May the Done head entry retire now? May initiate speculation. */
    virtual RetireCheck canRetire(RobEntry& entry) = 0;

    /** Apply the retirement side effects (store buffering, bit marking). */
    virtual void onRetire(RobEntry& entry) = 0;

    /** Store-to-load forwarding view of the impl's buffered stores. */
    virtual std::optional<std::uint64_t> forwardStore(Addr addr) const = 0;

    /** True while post-retirement speculation is in flight. */
    virtual bool speculating() const { return false; }

    /** Hook at load completion (continuous mode marks read bits here). */
    virtual void onLoadExecuted(RobEntry& entry) { (void)entry; }

    /**
     * Route @p n retirement-slot cycles of kind @p kind. Returns true
     * when the cycles were absorbed into a pending speculative breakdown;
     * false means the core adds them to the committed breakdown directly.
     * Called with n == 1 every normally-ticked stall cycle, and with the
     * bulk count when the System fast-forwards over quiescent cycles.
     */
    virtual bool routeCycles(StallKind kind, std::uint64_t n)
    {
        (void)kind;
        (void)n;
        return false;
    }

    /** The core went idle (halted program); finish lingering work. */
    virtual void onIdle() {}

    /** True when no buffered or speculative state remains. */
    virtual bool quiesced() const = 0;

    /**
     * Dump this implementation's live state (buffered stores, pending
     * speculation) to @p out — one piece of the liveness watchdog's
     * diagnostic (see System::watchdogFire). The default prints only
     * the name and the quiesced flag; implementations with store
     * buffers override to list their entries.
     */
    virtual void dumpLiveness(std::FILE* out) const;

    /**
     * Earliest future cycle at which this implementation's tick() could
     * do more than repeat the previous cycle's stall accounting, assuming
     * no external event fires first. kNeverCycle when only an external
     * event (cache fill, coherence message) can unblock it. Only
     * consulted after a cycle in which the whole system made no progress,
     * so purely state-dependent conditions cannot change in the gap; the
     * predicate needs to cover time-triggered work only.
     */
    virtual Cycle nextWorkAt() const { return kNeverCycle; }

    /**
     * Bulk-accrue the per-cycle counters tick() would have bumped over
     * @p n externally-quiescent cycles (cycles proven to make no state
     * change). Must leave every statistic exactly as n no-progress
     * tick() calls would have.
     */
    virtual void accrueQuiescentCycles(std::uint64_t n) { (void)n; }

    // --- CoherenceListener defaults for non-speculative impls ---
    ExtAction onSpecConflict(Addr block, bool wants_write) override;
    bool resolveSpecEviction(Addr block) override;
    void resolveSpecEvictionHard(Addr block) override;
    void onInvalidateApplied(Addr block) override;

  protected:
    std::string name_;
    Core& core_;
    CacheAgent& agent_;
};

/** Conventional SC/TSO sharing the word-granularity FIFO store buffer. */
class ConventionalFifoImpl : public ConsistencyImpl
{
  public:
    ConventionalFifoImpl(Model model, Core& core, CacheAgent& agent,
                         std::uint32_t sb_entries);

    void tick() override;
    RetireCheck canRetire(RobEntry& entry) override;
    void onRetire(RobEntry& entry) override;
    std::optional<std::uint64_t> forwardStore(Addr addr) const override;
    bool quiesced() const override { return sb_.empty(); }
    void accrueQuiescentCycles(std::uint64_t n) override;
    void dumpLiveness(std::FILE* out) const override;

    const FifoStoreBuffer& storeBuffer() const { return sb_; }

    std::uint64_t statDrained = 0;
    std::uint64_t statHeadBlocked = 0;
    std::uint64_t statHeadIssuedWait = 0;

  private:
    /** Request write permission for up to two younger entries. */
    void prefetchScan();

    Model model_;
    FifoStoreBuffer sb_;
    /** Length of the store buffer's prefix known to be issued or
     *  writable, valid while the L1's permission epoch equals
     *  settledEpoch_ (see prefetchScan). */
    std::size_t settled_ = 0;
    std::uint64_t settledEpoch_ = 0;
};

} // namespace invisifence

#endif // INVISIFENCE_CPU_CONSISTENCY_HH
