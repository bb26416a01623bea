#include "coh/network.hh"

#include "sim/annotations.hh"
#include <cstdlib>

#include "coh/cache_agent.hh"
#include "coh/directory.hh"
#include "coh/fault.hh"
#include "sim/log.hh"

namespace invisifence {

TorusDims
torusDims(const NetworkParams& params, std::uint32_t num_nodes)
{
    if (num_nodes == 0)
        IF_FATAL("torus with zero nodes");
    std::uint32_t x = params.dimX;
    std::uint32_t y = params.dimY;
    if (x == 0 && y == 0) {
        // Near-square factorization: the largest divisor <= sqrt(n)
        // becomes the Y extent. Every count has the trivial n x 1
        // fallback, so derivation never fails.
        std::uint32_t best = 1;
        for (std::uint32_t d = 2; d * d <= num_nodes; ++d) {
            if (num_nodes % d == 0)
                best = d;
        }
        y = best;
        x = num_nodes / best;
    } else if (x == 0) {
        x = num_nodes / y;
    } else if (y == 0) {
        y = num_nodes / x;
    }
    if (x == 0 || y == 0 || x * y != num_nodes)
        IF_FATAL("torus %ux%u does not tile %u nodes", params.dimX,
                 params.dimY, num_nodes);
    return TorusDims{x, y};
}

Network::Network(EventQueue& eq, const NetworkParams& params,
                 std::uint32_t num_nodes)
    : eq_(eq), params_(params), numNodes_(num_nodes)
{
    const TorusDims dims = torusDims(params, num_nodes);
    params_.dimX = dims.x;
    params_.dimY = dims.y;
    endpoints_.resize(static_cast<std::size_t>(num_nodes) * 2);
}

void
Network::attachAgent(NodeId node, CacheAgent* agent)
{
    IF_DBG_ASSERT(node < numNodes_ && agent);
    Endpoint& ep =
        endpoints_[node * 2 + static_cast<std::size_t>(Unit::Agent)];
    ep = Endpoint{};
    ep.agent = agent;
}

void
Network::attachDirectory(NodeId node, DirectorySlice* dir)
{
    IF_DBG_ASSERT(node < numNodes_ && dir);
    Endpoint& ep =
        endpoints_[node * 2 + static_cast<std::size_t>(Unit::Directory)];
    ep = Endpoint{};
    ep.dir = dir;
}

void
Network::attach(NodeId node, Unit unit, Sink sink)
{
    // A late attach() replaces whatever was registered (tests intercept
    // traffic on endpoints whose agent/directory self-registered at
    // construction), so the typed pointers are cleared too.
    IF_DBG_ASSERT(node < numNodes_);
    Endpoint& ep = endpoints_[node * 2 + static_cast<std::size_t>(unit)];
    ep = Endpoint{};
    ep.sink = sink;
}

std::uint32_t
Network::hops(NodeId a, NodeId b) const
{
    const auto torus_dist = [](std::uint32_t p, std::uint32_t q,
                               std::uint32_t dim) {
        const std::uint32_t d = p > q ? p - q : q - p;
        return d < dim - d ? d : dim - d;
    };
    const std::uint32_t ax = a % params_.dimX, ay = a / params_.dimX;
    const std::uint32_t bx = b % params_.dimX, by = b / params_.dimX;
    return torus_dist(ax, bx, params_.dimX) +
           torus_dist(ay, by, params_.dimY);
}

Cycle
Network::delay(NodeId a, NodeId b) const
{
    const std::uint32_t h = hops(a, b);
    if (h == 0)
        return params_.localLatency;
    return static_cast<Cycle>(h) * params_.perHopLatency;
}

void
Network::deliverAt(Cycle when, std::uint32_t sink_idx, const Msg& msg,
                   std::uint32_t wake)
{
    eq_.scheduleAt(when, [this, sink_idx, msg]() { dispatch(sink_idx, msg); },
                   wake);
}

void
Network::dispatch(std::uint32_t sink_idx, const Msg& msg)
{
    Endpoint& ep = endpoints_[sink_idx];
    if (ep.agent) {
        ep.agent->deliver(msg);
    } else if (ep.dir) {
        ep.dir->deliver(msg);
    } else {
        IF_DBG_ASSERT(ep.sink.fn &&
                      "message dispatched to unattached endpoint");
        ep.sink.fn(ep.sink.ctx, msg);
    }
}

void
Network::send(const Msg& msg)
{
    IF_HOT;
    IF_DBG_ASSERT(msg.src < numNodes_ && msg.dst < numNodes_);
    ++statMessages;
    if (msg.hasData)
        ++statDataMessages;
    statTotalHops += hops(msg.src, msg.dst);
    const std::uint32_t idx = static_cast<std::uint32_t>(
        msg.dst * 2 + static_cast<std::uint32_t>(msg.dstUnit));
    IF_DBG_ASSERT(endpoints_[idx].attached() &&
           "message sent to unattached endpoint");
    IF_TRACE("net: %s blk=%llx %u->%u", msgTypeName(msg.type).data(),
             static_cast<unsigned long long>(msg.blockAddr), msg.src,
             msg.dst);
    // Deliveries to a cache agent can synchronously touch its core
    // (fill callbacks, invalidation snoops, speculation aborts), so they
    // carry the destination node as a wake tag; directory-bound messages
    // only mutate directory state and send further (tagged) messages.
    const std::uint32_t wake =
        msg.dstUnit == Unit::Agent ? msg.dst : kNoWakeNode;
    const Cycle due = eq_.now() + delay(msg.src, msg.dst);
    if (faults_ != nullptr) [[unlikely]] {
        // Fault-injection detour: the injector decides this message's
        // fate (drop / extra delay / duplicate), FIFO-clamped per pair.
        const FaultFate fate = faults_->route(msg, idx, due);
        if (fate.dropped())
            return;
        deliverAt(fate.due, idx, msg, wake);
        if (fate.dupDue != kNeverCycle)
            deliverAt(fate.dupDue, idx, msg, wake);
        return;
    }
    deliverAt(due, idx, msg, wake);
}

} // namespace invisifence
