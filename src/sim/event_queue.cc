#include "sim/event_queue.hh"

#include "sim/annotations.hh"

#include "sim/log.hh"

namespace invisifence {

std::uint32_t
EventQueue::allocNode()
{
    if (freeHead_ != kNilNode) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].next;
        return idx;
    }
    return growPool();
}

std::uint32_t
EventQueue::growPool()
{
    IF_COLD_ALLOC("event-slab growth: nodes are free-listed and "
                  "recycled, so the slab only grows until the in-flight "
                  "high-water mark is reached during warmup");
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

EventQueue::Chain&
EventQueue::farChain(Cycle when)
{
    auto it = far_.lower_bound(when);
    if (it != far_.end() && it->first == when)
        return it->second;
    if (!farPool_.empty()) {
        auto node = std::move(farPool_.back());
        farPool_.pop_back();
        node.key() = when;
        node.mapped() = Chain{};
        return far_.insert(it, std::move(node))->second;
    }
    return coldFarChain(when);
}

EventQueue::Chain&
EventQueue::coldFarChain(Cycle when)
{
    IF_COLD_ALLOC("far_ map nodes are pooled (farPool_); a fresh node "
                  "is only allocated until the pool reaches the "
                  "high-water mark of concurrently pending far ticks");
    return far_.emplace_hint(far_.lower_bound(when), when, Chain{})
        ->second;
}

Event&
EventQueue::emplaceSlot(Cycle when, std::uint32_t wake_node)
{
    IF_DBG_ASSERT(when >= now_ && "scheduling an event in the past");
    if (when < now_) {
        // Release-build safety net: clamp to now, but say so once — a
        // silently rewritten schedule usually means a latency
        // computation underflowed somewhere upstream.
        if (!warnedPastSchedule_) {
            warnedPastSchedule_ = true;
            IF_LOG("event scheduled in the past (when=%llu < now=%llu); "
                   "clamping to now (reported once)",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(now_));
        }
        when = now_;
    }
    ++nextSeq_;
    if (size_ == 0 || when < nextTick_)
        nextTick_ = when;
    ++size_;
    const std::uint32_t idx = allocNode();
    Chain& chain = when - now_ < kWheelSize ? wheel_[when & kWheelMask]
                                            : farChain(when);
    appendNode(chain, idx);
    Node& node = pool_[idx];
    node.ev.when = when;
    node.ev.wakeNode = wake_node;
    return node.ev;
}

Cycle
EventQueue::nextEventTick() const
{
    IF_DBG_ASSERT(size_ > 0 && "nextEventTick on an empty queue");
    Cycle t = nextTick_ < now_ ? now_ : nextTick_;
    const Cycle wheel_end = now_ + kWheelSize;
    const Cycle far_min =
        far_.empty() ? kNeverCycle : far_.begin()->first;
    for (; t < wheel_end && t < far_min; ++t) {
        if (!wheel_[t & kWheelMask].empty()) {
            nextTick_ = t;
            return t;
        }
    }
    // Only overflow events remain pending.
    IF_DBG_ASSERT(far_min != kNeverCycle);
    nextTick_ = far_min;
    return far_min;
}

void
EventQueue::advanceTo(Cycle tick)
{
    IF_HOT;
    IF_DBG_ASSERT(tick >= now_);
    while (size_ > 0) {
        const Cycle t = nextEventTick();
        if (t > tick)
            break;
        now_ = t;
        Chain& slot = wheel_[t & kWheelMask];
        // Far-scheduled events predate every wheel append for this tick
        // (the wheel only accepts a tick once now_ is within range, and
        // now_ is monotonic), so their chain goes first to preserve
        // insertion order.
        auto far_it = far_.find(t);
        if (far_it != far_.end()) {
            Chain farc = far_it->second;
            farPool_.push_back(far_.extract(far_it));
            if (!farc.empty()) {
                pool_[farc.tail].next = slot.head;
                if (slot.empty())
                    slot.tail = farc.tail;
                slot.head = farc.head;
            }
        }
        // Chain walk: each node is copied out and recycled before its
        // event runs, so callbacks appending same-tick events simply
        // extend the live chain (possibly reusing the node just freed)
        // and the walk picks them up in FIFO order.
        while (!slot.empty()) {
            const std::uint32_t idx = slot.head;
            slot.head = pool_[idx].next;
            if (slot.head == kNilNode)
                slot.tail = kNilNode;
            Event ev = pool_[idx].ev;   // memcpy: Event is trivial
            freeNode(idx);
            --size_;
            ++executed_;
            if (ev.wakeNode != kNoWakeNode && wakeHook_)
                wakeHook_(wakeCtx_, ev.wakeNode, ev.when);
            ev.invoke(ev.payload);
        }
        nextTick_ = t + 1;
    }
    now_ = tick;
}

void
EventQueue::drain()
{
    while (size_ > 0)
        advanceTo(nextEventTick());
}

} // namespace invisifence
