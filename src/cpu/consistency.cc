#include "cpu/consistency.hh"

#include "sim/annotations.hh"

#include "cpu/core.hh"
#include "sim/log.hh"

namespace invisifence {

ConsistencyImpl::ConsistencyImpl(std::string name, Core& core,
                                 CacheAgent& agent)
    : name_(std::move(name)), core_(core), agent_(agent)
{
}

ConsistencyImpl::ExtAction
ConsistencyImpl::onSpecConflict(Addr block, bool wants_write)
{
    (void)block;
    (void)wants_write;
    IF_PANIC("speculative conflict reported to a non-speculative "
             "consistency implementation (%s)", name_.c_str());
}

bool
ConsistencyImpl::resolveSpecEviction(Addr block)
{
    (void)block;
    IF_PANIC("speculative eviction reported to a non-speculative "
             "consistency implementation (%s)", name_.c_str());
}

void
ConsistencyImpl::resolveSpecEvictionHard(Addr block)
{
    (void)block;
    IF_PANIC("speculative eviction reported to a non-speculative "
             "consistency implementation (%s)", name_.c_str());
}

void
ConsistencyImpl::onInvalidateApplied(Addr block)
{
    core_.notifyInvalidated(block);
}

void
ConsistencyImpl::dumpLiveness(std::FILE* out) const
{
    std::fprintf(out, "    impl %s quiesced=%d\n", name_.c_str(),
                 quiesced() ? 1 : 0);
}

// ---------------------------------------------------------------------
// Conventional SC and TSO (word-granularity FIFO store buffer)
// ---------------------------------------------------------------------

ConventionalFifoImpl::ConventionalFifoImpl(Model model, Core& core,
                                           CacheAgent& agent,
                                           std::uint32_t sb_entries)
    : ConsistencyImpl(modelName(model), core, agent), model_(model),
      sb_(sb_entries)
{
    IF_DBG_ASSERT(model == Model::SC || model == Model::TSO);
}

RetireCheck
ConventionalFifoImpl::canRetire(RobEntry& entry)
{
    switch (entry.inst.type) {
      case OpType::Alu:
      case OpType::Nop:
        return {true, StallKind::None};
      case OpType::Load:
        // SC: a load may not retire past an incomplete store.
        if (model_ == Model::SC && !sb_.empty())
            return {false, StallKind::SbDrain};
        return {true, StallKind::None};
      case OpType::Store:
        if (!sb_.hasSpace())
            return {false, StallKind::SbFull};
        return {true, StallKind::None};
      case OpType::Cas:
      case OpType::FetchAdd: {
        // Atomics drain the store buffer and hold the block writable
        // (Figure 2: "Drain SB" under both SC and TSO).
        if (!sb_.empty())
            return {false, StallKind::SbDrain};
        if (!agent_.l1Writable(entry.inst.addr)) {
            if (!agent_.fetchOutstanding(entry.inst.addr))
                agent_.request(entry.inst.addr, true);
            return {false, StallKind::SbDrain};
        }
        return {true, StallKind::None};
      }
      case OpType::Fence:
        // SC already orders everything. TSO provides acquire/release
        // ordering for free; only full (StoreLoad) fences drain.
        if (model_ == Model::TSO && entry.inst.fullFence && !sb_.empty())
            return {false, StallKind::SbDrain};
        return {true, StallKind::None};
      case OpType::Halt:
        return {true, StallKind::None};
    }
    return {true, StallKind::None};
}

void
ConventionalFifoImpl::onRetire(RobEntry& entry)
{
    switch (entry.inst.type) {
      case OpType::Store:
        sb_.push(wordAlign(entry.inst.addr), entry.inst.value, entry.seq);
        break;
      case OpType::Cas:
        if (entry.result == entry.inst.expect) {
            agent_.writeWordL1(entry.inst.addr, entry.inst.value, false,
                               0);
        }
        break;
      case OpType::FetchAdd:
        agent_.writeWordL1(entry.inst.addr,
                           entry.result + entry.inst.value, false, 0);
        break;
      default:
        break;
    }
}

std::optional<std::uint64_t>
ConventionalFifoImpl::forwardStore(Addr addr) const
{
    return sb_.forward(addr);
}

void
ConventionalFifoImpl::tick()
{
    IF_HOT;
    // In-order drain of the FIFO head, up to two stores per cycle.
    for (int k = 0; k < 2 && !sb_.empty(); ++k) {
        FifoStoreBuffer::Entry& head = sb_.front();
        const CacheAgent::BlockView view = agent_.resolveBlock(head.addr);
        if (view.writable()) {
            agent_.writeWordL1(view, head.addr, head.data, false, 0);
            sb_.popFront();
            if (settled_ > 0)
                --settled_;
            ++statDrained;
            core_.noteWork();
            continue;
        }
        ++statHeadBlocked;
        // Issue (or re-issue, if another core stole the permission
        // before the entry drained) the write fetch for the head.
        if (!agent_.fetchOutstanding(head.addr)) {
            if (agent_.request(head.addr, true)) {
                head.issued = true;
                core_.noteWork();
            }
        } else {
            ++statHeadIssuedWait;
        }
        break;
    }
    // Store prefetching: acquire write permission for younger entries
    // while the head waits (Flexus models this too, Section 6.1).
    if (core_.params().storePrefetch)
        prefetchScan();
}

void
ConventionalFifoImpl::prefetchScan()
{
    // The scan skips entries that are issued or writable. Issued is
    // sticky, and a writable block stays writable until some L1 line
    // loses write permission, which bumps the L1's permission epoch:
    // so while the epoch holds, the settled prefix found by earlier
    // scans is still all skips, and the scan resumes after it.
    const std::uint64_t epoch = agent_.l1().permEpoch();
    if (epoch != settledEpoch_)
        settled_ = 0;
    auto& entries = sb_.entries();
#ifndef NDEBUG
    for (std::size_t i = 0; i < settled_; ++i) {
        IF_DBG_ASSERT((entries[i].issued ||
                       agent_.l1Writable(entries[i].addr)) &&
                      "settled store-buffer entry lost its permission");
    }
#endif
    int prefetches = 0;
    std::size_t i = settled_;
    for (; i < entries.size(); ++i) {
        if (prefetches >= 2)
            break;
        FifoStoreBuffer::Entry& e = entries[i];
        if (e.issued || agent_.l1Writable(e.addr))
            continue;
        if (!agent_.request(e.addr, true))
            break;   // MSHRs exhausted
        e.issued = true;
        ++prefetches;
        core_.noteWork();
    }
    // Stamped with the epoch read before the scan: a permission loss
    // during it voids the prefix at the next scan.
    settled_ = i;
    settledEpoch_ = epoch;
}

void
ConventionalFifoImpl::accrueQuiescentCycles(std::uint64_t n)
{
    // Replicate tick()'s per-cycle counters for a no-progress cycle: a
    // writable head would have drained (and broken quiescence), so the
    // head is blocked; the issued-wait counter bumps only while its
    // write fetch is actually outstanding (an MSHR-exhausted head
    // retries silently).
    if (sb_.empty())
        return;
    statHeadBlocked += n;
    if (agent_.fetchOutstanding(sb_.front().addr))
        statHeadIssuedWait += n;
}

void
ConventionalFifoImpl::dumpLiveness(std::FILE* out) const
{
    std::fprintf(out, "    impl %s sb=%zu/%u\n", name_.c_str(), sb_.size(),
                 sb_.capacity());
    const RingDeque<FifoStoreBuffer::Entry>& entries = sb_.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const FifoStoreBuffer::Entry& e = entries[i];
        std::fprintf(out, "      sb[%zu] addr=%llx seq=%llu issued=%d\n",
                     i, static_cast<unsigned long long>(e.addr),
                     static_cast<unsigned long long>(e.seq),
                     e.issued ? 1 : 0);
    }
}

} // namespace invisifence
