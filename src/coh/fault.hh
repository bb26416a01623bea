/**
 * @file
 * Deterministic fault injection for the coherence fabric.
 *
 * A FaultPlan describes what goes wrong (per-message-class drop /
 * extra-delay / duplicate rates plus scheduled one-shot faults); a
 * FaultInjector executes the plan at Network::send time, deciding each
 * message's fate from its own seeded Rng. The injector only decides —
 * it returns a FaultFate (dropped, or due cycles for the delivery and
 * an optional duplicate) and the Network schedules the deliveries — so
 * it owns no event queue and can be driven directly. Decisions are a
 * pure function of the plan and the message sequence, so the same seed
 * yields the same faults — and because the message sequence is itself
 * identical across fast-forward on/off, fault runs stay bit-identical
 * too.
 *
 * Two invariants keep injected faults recoverable:
 *
 *  - Drops and duplicates apply only to request-class messages
 *    (GetS/GetM/Put*). Requests are retried by the cache agent and
 *    deduplicated by the home; dropping a forward, ack or data response
 *    would wedge the protocol with no recovery path (exactly what the
 *    planted-deadlock fixture does, deliberately, with retries off).
 *  - Extra delay never reorders messages within an ordered
 *    (src -> dst, unit) pair: the injector clamps every delivery to be
 *    no earlier than the pair's previously scheduled one (jitter
 *    without reordering). The directory protocol documents per-pair
 *    FIFO as an invariant it relies on (see network.hh); faults stress
 *    loss and latency, not properties the hardware fabric guarantees.
 */

#ifndef INVISIFENCE_COH_FAULT_HH
#define INVISIFENCE_COH_FAULT_HH

#include <cstdint>
#include <vector>

#include "coh/message.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace invisifence {

/**
 * What to inject. Default-constructed plans inject nothing and the
 * Network hook stays a single never-taken branch (goldens unchanged).
 */
struct FaultPlan
{
    /** Kind of a scheduled one-shot fault. */
    enum class Kind : std::uint8_t { Drop, Delay, Duplicate };

    /** One scheduled fault: applies to the @p msgIndex-th message the
     *  injector observes (1-based send order), deterministically. */
    struct OneShot
    {
        std::uint64_t msgIndex = 0;
        Kind kind = Kind::Drop;
        Cycle extraDelay = 0;    //!< Delay: added cycles
    };

    std::uint64_t seed = 1;          //!< fault Rng seed
    std::uint32_t dropPer64k = 0;    //!< request drop rate (per 65536)
    std::uint32_t delayPer64k = 0;   //!< extra-delay rate, any class
    std::uint32_t dupPer64k = 0;     //!< request duplication rate
    Cycle maxExtraDelay = 256;       //!< jitter bound for random delays
    /** Scheduled faults; the injector sorts them by msgIndex. */
    std::vector<OneShot> oneShots;

    /** True when this plan can inject anything at all. */
    bool
    any() const
    {
        return dropPer64k != 0 || delayPer64k != 0 || dupPer64k != 0 ||
               !oneShots.empty();
    }
};

/** One message's fate: dropped, or delivered (possibly twice). */
struct FaultFate
{
    Cycle due = kNeverCycle;      //!< delivery cycle; kNeverCycle = dropped
    Cycle dupDue = kNeverCycle;   //!< duplicate's delivery, if any

    bool dropped() const { return due == kNeverCycle; }
};

/**
 * Executes a FaultPlan on the send path. Owned by the System and
 * attached to the Network only when the plan injects something; the
 * route path performs no heap allocation (it runs inside the IF_HOT
 * send path).
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan& plan, std::uint32_t num_nodes);

    /**
     * Decide @p msg's fate. @p sink_idx is the destination endpoint
     * (dst * 2 + unit) and @p due the cycle the clean path would
     * deliver at; every surviving delivery is FIFO-clamped per
     * (src, sink_idx) pair.
     */
    FaultFate route(const Msg& msg, std::uint32_t sink_idx, Cycle due);

    /** @{ Injection counters (registered as system.fault.* stats). */
    std::uint64_t statDrops = 0;        //!< request messages dropped
    std::uint64_t statDups = 0;         //!< extra copies delivered
    std::uint64_t statDelays = 0;       //!< messages given extra delay
    std::uint64_t statDelayCycles = 0;  //!< total extra cycles injected
    /** @} */

  private:
    /** Clamp @p due to the (src -> sink) pair's FIFO horizon. */
    Cycle clampFifo(std::uint32_t src, std::uint32_t sink_idx, Cycle due);

    FaultPlan plan_;
    Rng rng_;
    std::uint32_t numNodes_;
    std::uint64_t msgIndex_ = 0;     //!< messages observed (1-based)
    std::size_t nextOneShot_ = 0;    //!< cursor into plan_.oneShots
    /** Latest scheduled delivery tick per ordered (src, sink) pair;
     *  sized numNodes * numNodes * 2 once at construction. */
    std::vector<Cycle> pairLast_;
};

} // namespace invisifence

#endif // INVISIFENCE_COH_FAULT_HH
