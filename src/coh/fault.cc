#include "coh/fault.hh"

#include <algorithm>

#include "sim/log.hh"

namespace invisifence {

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint32_t num_nodes)
    : plan_(plan), rng_(plan.seed), numNodes_(num_nodes)
{
    if (num_nodes == 0)
        IF_FATAL("fault injector over an empty fabric");
    // below(0) is ill-defined; a zero jitter bound means "minimal".
    if (plan_.maxExtraDelay == 0)
        plan_.maxExtraDelay = 1;
    std::stable_sort(
        plan_.oneShots.begin(), plan_.oneShots.end(),
        [](const FaultPlan::OneShot& a, const FaultPlan::OneShot& b) {
            return a.msgIndex < b.msgIndex;
        });
    pairLast_.assign(
        static_cast<std::size_t>(num_nodes) * num_nodes * 2, 0);
}

Cycle
FaultInjector::clampFifo(std::uint32_t src, std::uint32_t sink_idx,
                         Cycle due)
{
    Cycle& last =
        pairLast_[static_cast<std::size_t>(src) * numNodes_ * 2 + sink_idx];
    if (due < last)
        due = last;
    last = due;
    return due;
}

FaultFate
FaultInjector::route(const Msg& msg, std::uint32_t sink_idx, Cycle due)
{
    // Reachable from Network::send (IF_HOT): no allocation on any path.
    ++msgIndex_;
    // Only request-class messages may be dropped or duplicated; see the
    // file comment in fault.hh. One-shots obey the same restriction.
    const bool droppable = isRequest(msg.type);

    bool drop = false;
    bool dup = false;
    Cycle extra = 0;
    // Scheduled one-shots are matched by cursor against the sorted plan
    // and consume no rng draws, so adding one to a plan perturbs only
    // the targeted message, not the whole random fault stream.
    while (nextOneShot_ < plan_.oneShots.size() &&
           plan_.oneShots[nextOneShot_].msgIndex < msgIndex_)
        ++nextOneShot_;
    if (nextOneShot_ < plan_.oneShots.size() &&
        plan_.oneShots[nextOneShot_].msgIndex == msgIndex_) {
        const FaultPlan::OneShot& os = plan_.oneShots[nextOneShot_];
        ++nextOneShot_;
        switch (os.kind) {
          case FaultPlan::Kind::Drop:
            drop = droppable;
            break;
          case FaultPlan::Kind::Delay:
            extra = os.extraDelay;
            break;
          case FaultPlan::Kind::Duplicate:
            dup = droppable;
            break;
        }
    } else {
        // Fixed draw order (drop, delay, dup) keeps the stream a pure
        // function of the plan and the message sequence.
        if (plan_.dropPer64k != 0 && droppable &&
            rng_.chance64k(plan_.dropPer64k)) {
            drop = true;
        }
        if (plan_.delayPer64k != 0 && rng_.chance64k(plan_.delayPer64k))
            extra = 1 + rng_.below(plan_.maxExtraDelay);
        if (plan_.dupPer64k != 0 && droppable &&
            rng_.chance64k(plan_.dupPer64k)) {
            dup = true;
        }
    }

    if (drop) {
        // Vanished messages leave the pair's FIFO horizon untouched: a
        // drop is not a delivery, so it cannot constrain later ones.
        ++statDrops;
        return FaultFate{};
    }

    if (extra != 0) {
        ++statDelays;
        statDelayCycles += extra;
    }
    // Every delivery — faulted or not — passes through the per-pair
    // clamp while the injector is attached: an earlier delayed message
    // must push back later same-pair sends to preserve FIFO.
    FaultFate fate;
    fate.due = clampFifo(msg.src, sink_idx, due + extra);
    if (dup) {
        ++statDups;
        const Cycle gap = 1 + rng_.below(plan_.maxExtraDelay);
        fate.dupDue = clampFifo(msg.src, sink_idx, fate.due + gap);
    }
    return fate;
}

} // namespace invisifence
