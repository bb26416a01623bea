/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in insertion order, which keeps
 * whole-system simulations bit-for-bit reproducible across runs and seeds.
 *
 * The implementation is a timing wheel: a power-of-two ring of per-tick
 * buckets covering the near future (every latency in the simulated system —
 * network hops, memory, retries — is far below the wheel span), with a
 * sorted overflow map for anything scheduled further out. Scheduling and
 * popping are O(1) appends/moves instead of binary-heap sifts.
 *
 * Events are *pooled*: an Event is a fixed-size, trivially copyable slot
 * holding a bounded inline closure and the thunk that invokes it — never
 * a std::function, whose closure would heap-allocate per event. There is
 * one event kind: a coherence-message delivery is an ordinary closure
 * carrying {Network*, endpoint, Msg}, so the queue knows nothing of the
 * message format. Event storage is a single free-listed node slab shared
 * by all buckets: each wheel slot is an intrusive FIFO chain of pool
 * indices, executed nodes return to the free list, and the pool's
 * high-water mark is the global maximum of in-flight events (reached
 * during warmup) rather than a per-bucket one — so steady-state
 * scheduling and executing events (messages included) performs zero
 * heap allocations per simulated cycle.
 */

#ifndef INVISIFENCE_SIM_EVENT_QUEUE_HH
#define INVISIFENCE_SIM_EVENT_QUEUE_HH

#include "sim/annotations.hh"
#include <cstddef>
#include <cstdint>
#include <map>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/types.hh"

namespace invisifence {

/** Node tag for events that affect no core (e.g. directory-internal). */
constexpr std::uint32_t kNoWakeNode = 0xffffffffu;

/**
 * Inline payload capacity of an Event. Sized for the largest scheduled
 * closure in the simulator: a network delivery, {Network*, endpoint
 * index, Msg}. The static_assert in scheduleAt guards every closure.
 */
constexpr std::size_t kEventInlineBytes = 120;

/**
 * One scheduled event: a fixed-size, trivially copyable slot whose
 * payload holds a trivially-copyable closure invoked through the stored
 * thunk.
 */
struct Event
{
    Cycle when = 0;
    void (*invoke)(void*) = nullptr;       //!< closure thunk
    std::uint32_t wakeNode = kNoWakeNode;  //!< core to wake on execute
    alignas(std::max_align_t) unsigned char payload[kEventInlineBytes];
};

static_assert(std::is_trivially_copyable_v<Event>,
              "Event slots must move with memcpy (pooled storage)");

/**
 * Timing-wheel event queue ordered by (tick, insertion order).
 *
 * The owning System drives it with advanceTo(now) once per simulated cycle;
 * components use schedule() for any action with latency.
 */
class EventQueue
{
  public:
    EventQueue() : wheel_(kWheelSize) {}

    /**
     * Schedule @p fn to run at absolute cycle @p when. Events whose
     * synchronous effects can touch a core (cache fills, message
     * deliveries to an agent, writeback completions) carry that core's
     * node in @p wake_node so a dormant core is woken (and its skipped
     * stall cycles settled) before the event runs; events that only
     * touch node-external state (directory transactions) use
     * kNoWakeNode.
     *
     * @p fn must be a bounded, trivially copyable closure: it is stored
     * inline in the pooled event slot (no heap allocation, ever).
     */
    template <typename F>
    void
    scheduleAt(Cycle when, F fn, std::uint32_t wake_node = kNoWakeNode)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "event closures must be trivially copyable "
                      "(capture PODs / pointers / references only)");
        static_assert(sizeof(Fn) <= kEventInlineBytes,
                      "event closure exceeds the inline payload; shrink "
                      "the capture or widen kEventInlineBytes");
        static_assert(alignof(Fn) <= alignof(std::max_align_t));
        Event& ev = emplaceSlot(when, wake_node);
        ::new (static_cast<void*>(ev.payload)) Fn(std::move(fn));
        ev.invoke = [](void* buf) {
            (*std::launder(reinterpret_cast<Fn*>(buf)))();
        };
    }

    /** Schedule @p fn to run @p delay cycles after the current time. */
    template <typename F>
    void
    schedule(Cycle delay, F fn, std::uint32_t wake_node = kNoWakeNode)
    {
        scheduleAt(now_ + delay, std::move(fn), wake_node);
    }

    /**
     * Hook invoked with (wakeNode, when) immediately before executing
     * any event carrying a wake tag. The System uses it to settle and
     * wake the dormant core the event is about to affect. Registered as
     * a plain function pointer plus context, so the dispatch path stays
     * allocation-free and statically analyzable.
     */
    using WakeHook = void (*)(void* ctx, std::uint32_t node, Cycle when);
    void
    setWakeHook(WakeHook hook, void* ctx)
    {
        wakeHook_ = hook;
        wakeCtx_ = ctx;
    }

    /**
     * Execute every event with when <= @p tick, in deterministic order.
     * Events scheduled during execution at times <= tick also run.
     */
    void advanceTo(Cycle tick);

    /** Run until the queue is empty (used by unit tests). */
    void drain();

    Cycle now() const { return now_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Tick of the earliest pending event; only valid when !empty(). */
    Cycle nextEventTick() const;

    /**
     * @{ Monotonic activity counters. Their sum changes if and only if
     * an event was scheduled or executed, which lets the System detect
     * externally-quiescent cycles in O(1) (fast-forward scheduling).
     */
    std::uint64_t scheduledCount() const { return nextSeq_; }
    std::uint64_t executedCount() const { return executed_; }
    /** @} */

  private:
    static constexpr std::uint32_t kWheelBits = 11;
    static constexpr Cycle kWheelSize = Cycle{1} << kWheelBits;
    static constexpr Cycle kWheelMask = kWheelSize - 1;
    static constexpr std::uint32_t kNilNode = 0xffffffffu;

    /** One slab slot: an event plus its intrusive chain link. */
    struct Node
    {
        Event ev;
        std::uint32_t next = kNilNode;
    };

    /** FIFO chain of pool indices (head runs first). */
    struct Chain
    {
        std::uint32_t head = kNilNode;
        std::uint32_t tail = kNilNode;

        bool empty() const { return head == kNilNode; }
    };

    /** Pop a node from the free list (or grow the slab: warmup only). */
    std::uint32_t allocNode();
    /** Slab-growth slow path of allocNode (cold, allocation frontier). */
    IF_COLD_FN std::uint32_t growPool();
    /** Return a node to the free list. */
    void
    freeNode(std::uint32_t idx)
    {
        pool_[idx].next = freeHead_;
        freeHead_ = idx;
    }
    /** Append node @p idx to @p chain (FIFO order). */
    void
    appendNode(Chain& chain, std::uint32_t idx)
    {
        pool_[idx].next = kNilNode;
        if (chain.tail == kNilNode) {
            chain.head = idx;
        } else {
            pool_[chain.tail].next = idx;
        }
        chain.tail = idx;
    }

    /**
     * Claim a pooled slot for an event at @p when (common, non-template
     * bookkeeping behind scheduleAt). The caller fills the payload
     * immediately — before any further call that could grow
     * the slab and invalidate the reference.
     */
    Event& emplaceSlot(Cycle when, std::uint32_t wake_node);

    /** The shared event slab; nodes are free-listed and recycled. */
    std::vector<Node> pool_;
    std::uint32_t freeHead_ = kNilNode;
    /** Per-tick chains for the near future. Pending wheel events always
     *  have when in [now_, now_ + kWheelSize), so each slot holds at
     *  most one tick's events at a time. */
    std::vector<Chain> wheel_;
    /** Chain for a far event at @p when, creating the map entry from
     *  the recycled-node pool when possible. Under heavy contention
     *  (large machines), link backlogs push deliveries past the wheel
     *  span every cycle — far_ churn is steady-state there, so its map
     *  nodes are pooled exactly like the event slab. */
    Chain& farChain(Cycle when);
    /** Pool-miss slow path of farChain (cold, allocation frontier). */
    IF_COLD_FN Chain& coldFarChain(Cycle when);

    /** Events scheduled >= kWheelSize cycles out, ordered by tick. A
     *  chain migrates in front of its wheel slot at execution time
     *  (far-scheduled events always predate wheel appends for the same
     *  tick, so prepending preserves insertion order). */
    std::map<Cycle, Chain> far_;
    /** Extracted far_ nodes awaiting reuse (see farChain()). */
    std::vector<std::map<Cycle, Chain>::node_type> farPool_;
    std::size_t size_ = 0;
    /** Lower bound on the earliest pending tick (lazily advanced). */
    mutable Cycle nextTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    Cycle now_ = 0;
    WakeHook wakeHook_ = nullptr;
    void* wakeCtx_ = nullptr;
    bool warnedPastSchedule_ = false;
};

} // namespace invisifence

#endif // INVISIFENCE_SIM_EVENT_QUEUE_HH
