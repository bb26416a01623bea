/**
 * @file
 * 2D torus interconnect (Figure 6: 4x4 torus, 25 ns per hop).
 *
 * Latency-only model: delivery delay is hops(src, dst) * per-hop latency,
 * with a floor of one cycle for node-local traffic. Because the delay
 * between a fixed (src, dst) pair is constant and the event queue preserves
 * insertion order at equal ticks, delivery is FIFO per pair — an ordering
 * property the directory protocol relies on (an agent's PutM can never be
 * overtaken by its own later GetM).
 *
 * Delivery is devirtualized: endpoints are a flat dispatch table of typed
 * pointers (CacheAgent / DirectorySlice, whose deliver() members are
 * called directly), not per-endpoint std::function sinks. send()
 * schedules each delivery as an ordinary event whose inline closure is
 * {Network*, endpoint index, Msg}: the Msg is copied once, into the
 * event queue's pooled slot, and never onto the heap. Tests that
 * intercept an endpoint's traffic attach a typed {function, context}
 * sink instead. With a FaultInjector attached, the injector decides
 * each message's fate (coh/fault.hh) and send() schedules whatever
 * deliveries survive.
 */

#ifndef INVISIFENCE_COH_NETWORK_HH
#define INVISIFENCE_COH_NETWORK_HH

#include <cstdint>
#include <vector>

#include "coh/message.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace invisifence {

class CacheAgent;
class DirectorySlice;
class FaultInjector;

/**
 * Parameters of the torus. Dimensions of 0 are derived from the node
 * count at construction (near-square factorization, see torusDims);
 * explicit dimensions must tile the node count exactly.
 */
struct NetworkParams
{
    std::uint32_t dimX = 0;      //!< 0 = derive from the node count
    std::uint32_t dimY = 0;      //!< 0 = derive from the node count
    Cycle perHopLatency = 100;   //!< 25 ns at 4 GHz
    Cycle localLatency = 1;      //!< node-local unit-to-unit latency
};

/** The torus dimensions (x, y) that @p params yields for @p num_nodes.
 *  Unspecified (zero) dimensions are derived: both zero picks the
 *  near-square factorization (16 -> 4x4, 64 -> 8x8, 12 -> 4x3); one
 *  zero divides the other out. A non-rectangular combination
 *  (dimX * dimY != num_nodes) is a fatal configuration error — the old
 *  coordinate math silently computed wrong distances for it. */
struct TorusDims
{
    std::uint32_t x = 0;
    std::uint32_t y = 0;
};
TorusDims torusDims(const NetworkParams& params, std::uint32_t num_nodes);

/**
 * Message fabric connecting cache agents and directory slices.
 *
 * Endpoints register themselves per (node, unit); send() computes the
 * topological delay and schedules a pooled message-delivery event on the
 * shared event queue.
 */
class Network
{
  public:
    /**
     * Custom receiver for attach(): a plain function applied to
     * {ctx, msg}, in the style of FillWaiter (tests intercept an
     * endpoint's traffic with one; production endpoints are typed).
     */
    struct Sink
    {
        void (*fn)(void* ctx, const Msg& msg) = nullptr;
        void* ctx = nullptr;
    };

    Network(EventQueue& eq, const NetworkParams& params,
            std::uint32_t num_nodes);

    /** @{ Register the receiver for (node, unit): direct dispatch. */
    void attachAgent(NodeId node, CacheAgent* agent);
    void attachDirectory(NodeId node, DirectorySlice* dir);
    /** @} */

    /** Register a custom sink for (node, unit), replacing any typed
     *  receiver (tests only). */
    void attach(NodeId node, Unit unit, Sink sink);

    /** Send @p msg; delivery is scheduled after the topological delay. */
    void send(const Msg& msg);

    /**
     * Route every subsequent send() through @p f (deterministic fault
     * injection; see coh/fault.hh). Null detaches. With no injector
     * attached — the default — the hook costs one never-taken branch.
     */
    void setFaultInjector(FaultInjector* f) { faults_ = f; }

    /** Minimal torus hop count between two nodes. */
    std::uint32_t hops(NodeId a, NodeId b) const;

    /** Delivery delay for a message from @p a to @p b. */
    Cycle delay(NodeId a, NodeId b) const;

    /** @{ Resolved torus dimensions (derived when the params were 0). */
    std::uint32_t dimX() const { return params_.dimX; }
    std::uint32_t dimY() const { return params_.dimY; }
    /** @} */

    std::uint64_t statMessages = 0;
    std::uint64_t statDataMessages = 0;
    std::uint64_t statTotalHops = 0;

  private:
    /** One dispatch-table slot: exactly one of the members is set. */
    struct Endpoint
    {
        CacheAgent* agent = nullptr;
        DirectorySlice* dir = nullptr;
        Sink sink;   //!< custom receiver (tests)

        bool
        attached() const
        {
            return agent != nullptr || dir != nullptr ||
                   sink.fn != nullptr;
        }
    };

    /** Schedule delivery of @p msg to endpoint @p sink_idx at @p when. */
    void deliverAt(Cycle when, std::uint32_t sink_idx, const Msg& msg,
                   std::uint32_t wake);
    /** Direct endpoint call (runs as the delivery event). */
    void dispatch(std::uint32_t sink_idx, const Msg& msg);

    EventQueue& eq_;
    NetworkParams params_;
    std::uint32_t numNodes_;
    std::vector<Endpoint> endpoints_;   //!< indexed by node * 2 + unit
    FaultInjector* faults_ = nullptr;   //!< optional; see setFaultInjector
};

} // namespace invisifence

#endif // INVISIFENCE_COH_NETWORK_HH
