#include "coh/cache_agent.hh"

#include "sim/annotations.hh"
#include <algorithm>

#include "sim/log.hh"

namespace invisifence {

namespace {

/** Borrow a recycled scratch vector from @p pool (empty, with the
 *  capacity of its last use). Scratch vectors trade storage with MSHR
 *  waiter lists via swap, so every vector entering the circulation
 *  starts with working capacity: the swap dance then keeps all
 *  participants at or above it, and the steady state never grows a
 *  vector one push at a time. */
/** Pool-miss slow path of takeScratch (cold allocation frontier). */
template <typename T>
IF_COLD_FN std::vector<T>
freshScratch()
{
    IF_COLD_ALLOC("scratch-pool miss: a fresh vector is built only "
                  "until the pool covers peak drain reentrancy; every "
                  "vector is returned via putScratch with capacity "
                  "intact");
    std::vector<T> v;
    v.reserve(16);
    return v;
}

template <typename T>
std::vector<T>
takeScratch(std::vector<std::vector<T>>& pool)
{
    if (pool.empty())
        return freshScratch<T>();
    std::vector<T> v = std::move(pool.back());
    pool.pop_back();
    return v;
}

/** Return a scratch vector to @p pool, keeping its capacity. */
template <typename T>
void
putScratch(std::vector<std::vector<T>>& pool, std::vector<T> v)
{
    v.clear();
    pool.push_back(std::move(v));
}

} // namespace

CacheAgent::CacheAgent(NodeId node, const HomeMap& home_map, Network& net,
                       EventQueue& eq, const AgentParams& params)
    : node_(node), homeMap_(home_map), net_(net), eq_(eq),
      params_(params),
      l1_(params.l1Size, params.l1Ways,
          "node" + std::to_string(node) + ".l1d"),
      l2_(params.l2Size, params.l2Ways,
          "node" + std::to_string(node) + ".l2", /*spec_index=*/false),
      vc_(params.victimEntries), mshrs_(params.mshrs + 64)
{
    net_.attachAgent(node_, this);
    // Prime the local-fill batch pool past any realistic number of
    // concurrently pending local fills (events live ~l2Latency ticks),
    // so the steady-state hot path never allocates; demand beyond the
    // preallocation still works, each extra slot allocating once.
    localBatches_.reserve(128);
    freeBatch_ = 0;
    for (std::uint32_t s = 0; s < 128; ++s) {
        LocalFillBatch& b = localBatches_.emplace_back();
        b.waiters.reserve(4);
        b.nextFree = s + 1 < 128 ? s + 1 : ~std::uint32_t{0};
    }
}

bool
CacheAgent::l1Readable(Addr addr) const
{
    checkTagInvariant(addr);
    return static_cast<bool>(l1_.lookup(addr));
}

bool
CacheAgent::l1Writable(Addr addr) const
{
    checkTagInvariant(addr);
    const CacheArray::Line l1line = l1_.lookup(addr);
    return l1line && isWritable(l1line.state());
}

bool
CacheAgent::l1Dirty(Addr addr) const
{
    const CacheArray::Line l1line = l1_.lookup(addr);
    return l1line && l1line.dirty();
}

bool
CacheAgent::tryReadL1(Addr addr, std::uint64_t* value) const
{
    checkTagInvariant(addr);
    const CacheArray::Line l1line = l1_.lookup(addr);
    if (!l1line)
        return false;
    *value = l1line.data().readWord(blockOffset(wordAlign(addr)));
    return true;
}

bool
CacheAgent::fetchOutstanding(Addr addr) const
{
    return const_cast<MshrFile&>(mshrs_).lookup(addr, Mshr::Kind::Fetch) !=
           nullptr;
}

bool
CacheAgent::request(Addr addr, bool write, FillWaiter cb)
{
    const Addr block = blockAlign(addr);

    // Merge into an outstanding fetch for the same block.
    if (Mshr* m = mshrs_.lookup(block, Mshr::Kind::Fetch)) {
        if (write) {
            m->wantWrite = true;
            if (cb)
                mshrs_.pushWaiter(m->writeWaiters, cb);
        } else if (cb) {
            mshrs_.pushWaiter(m->readWaiters, cb);
        }
        return true;
    }

    CacheArray::Line l2line = l2_.lookup(block);
    if (l2line) {
        if (!write || isWritable(l2line.state())) {
            // Local fill: data and permission both available.
            const bool vc_hit = vc_.extract(block);
            const Cycle lat =
                vc_hit ? params_.victimLatency : params_.l2Latency;
            const Cycle due = eq_.now() + lat;
            // Merge into the just-scheduled local fill for this block
            // when nothing else entered the queue since (the two
            // events would be adjacent in the same-tick FIFO, so
            // appending to the batch is unobservable; see
            // localBatches_ in the header).
            if (lastLocalSeqAfter_ == eq_.scheduledCount() &&
                lastLocalBlock_ == block && lastLocalDue_ == due) {
                hotPush(localBatches_[lastLocalSlot_].waiters, cb);
                return true;
            }
            std::uint32_t slot;
            if (freeBatch_ != ~std::uint32_t{0}) {
                slot = freeBatch_;
                freeBatch_ = localBatches_[slot].nextFree;
            } else {
                slot = static_cast<std::uint32_t>(localBatches_.size());
                localBatches_.emplace_back();
            }
            LocalFillBatch& b = localBatches_[slot];
            b.block = block;
            b.l2h = l2line.handle();
            hotPush(b.waiters, cb);
            eq_.schedule(lat, [this, slot]() {
                runLocalFillBatch(slot);
            }, node_);
            lastLocalBlock_ = block;
            lastLocalDue_ = due;
            lastLocalSlot_ = slot;
            lastLocalSeqAfter_ = eq_.scheduledCount();
            return true;
        }
        // Upgrade: data present (Shared) but write permission missing.
        if (fetchCount_ >= params_.mshrs)
            return false;
        Mshr* m = mshrs_.allocate(block, Mshr::Kind::Fetch);
        ++fetchCount_;
        m->wantWrite = true;
        m->issuedWrite = true;
        if (cb)
            mshrs_.pushWaiter(m->writeWaiters, cb);
        ++statUpgrades;
        sendRequest(m, MsgType::GetM, nullptr, false);
        return true;
    }

    // Full miss.
    if (fetchCount_ >= params_.mshrs)
        return false;
    Mshr* m = mshrs_.allocate(block, Mshr::Kind::Fetch);
    ++fetchCount_;
    m->wantWrite = write;
    m->issuedWrite = write;
    if (cb) {
        if (write)
            mshrs_.pushWaiter(m->writeWaiters, cb);
        else
            mshrs_.pushWaiter(m->readWaiters, cb);
    }
    sendRequest(m, write ? MsgType::GetM : MsgType::GetS, nullptr, false);
    return true;
}

std::uint64_t
CacheAgent::readWordL1(Addr addr) const
{
    const CacheArray::Line l1line = l1_.lookup(addr);
    IF_DBG_ASSERT(l1line && "readWordL1 of absent block");
    return l1line.data().readWord(blockOffset(wordAlign(addr)));
}

void
CacheAgent::writeWordL1(Addr addr, std::uint64_t value, bool speculative,
                        std::uint32_t ctx)
{
    writeWordL1(resolveBlock(addr), addr, value, speculative, ctx);
}

void
CacheAgent::writeWordL1(const BlockView& view, Addr addr,
                        std::uint64_t value, bool speculative,
                        std::uint32_t ctx)
{
    noteL1Write(view, speculative, ctx);
    view.l1.data().writeWord(blockOffset(wordAlign(addr)), value);
}

void
CacheAgent::writeMaskedL1(const BlockView& view, const MaskedBlock& data,
                          bool speculative, std::uint32_t ctx)
{
    noteL1Write(view, speculative, ctx);
    data.applyTo(view.l1.data());
}

void
CacheAgent::noteL1Write(const BlockView& view, bool speculative,
                        std::uint32_t ctx)
{
    const CacheArray::Line l1line = view.l1;
    IF_DBG_ASSERT(view.writable() && "write to non-writable block");
    checkTagInvariant(l1line.blockAddr());
    if (speculative) {
        // The cleaning writeback must already have preserved the
        // pre-speculative value of a dirty block (Section 3.2).
        IF_DBG_ASSERT(!(l1line.dirty() && !l1line.specWrittenAny()) &&
               "speculative write to unclean non-speculative dirty block");
        IF_DBG_ASSERT(ctx < kMaxCheckpoints);
        if (!l1line.speculative())
            ++specLines_;
        l1line.setSpecWritten(ctx);
    }
    l1line.setDirty(true);
    if (l1line.state() != CoherenceState::Modified) {
        // First write to an Exclusive block: both levels go to
        // Modified. A Modified L1 tag means the L2's is Modified too.
        l1line.setState(CoherenceState::Modified);
        l2_.lookup(l1line.blockAddr()).setState(CoherenceState::Modified);
    }
    l1_.touch(l1line);
}

void
CacheAgent::setSpecRead(Addr addr, std::uint32_t ctx)
{
    const CacheArray::Line l1line = l1_.lookup(addr);
    IF_DBG_ASSERT(l1line && "setSpecRead of absent block");
    IF_DBG_ASSERT(ctx < kMaxCheckpoints);
    if (!l1line.speculative())
        ++specLines_;
    l1line.setSpecRead(ctx);
}

bool
CacheAgent::markSpecReadIfPresent(Addr addr, std::uint32_t ctx)
{
    const CacheArray::Line l1line = l1_.lookup(addr);
    if (!l1line)
        return false;
    IF_DBG_ASSERT(ctx < kMaxCheckpoints);
    if (!l1line.speculative())
        ++specLines_;
    l1line.setSpecRead(ctx);
    return true;
}

bool
CacheAgent::cleanWriteback(Addr addr, FillWaiter cb)
{
    const Addr block = blockAlign(addr);
    const CacheArray::Line l1line = l1_.lookup(block);
    if (!l1line || !l1line.dirty())
        return false;
    ++statCleanWritebacks;
    eq_.schedule(params_.l2Latency, [this, block, cb]() {
        const CacheArray::Line line = l1_.lookup(block);
        if (line && line.dirty() && !line.specWrittenAny())
            syncL2FromL1(line, l2_.lookup(block));
        cb();
    }, node_);
    return true;
}

void
CacheAgent::flashCommit(std::uint32_t ctx)
{
    l1_.flashClearSpecBits(ctx);
    specLines_ = l1_.countSpeculative(0) + l1_.countSpeculative(1);
}

void
CacheAgent::flashAbort(std::uint32_t ctx)
{
    l1_.flashInvalidateSpecWritten(ctx);
    specLines_ = l1_.countSpeculative(0) + l1_.countSpeculative(1);
}

void
CacheAgent::primeBlock(Addr block, CoherenceState state,
                       const BlockData& data)
{
    installL2(blockAlign(block), data, state);
}

bool
CacheAgent::tryInstantL1Install(Addr addr)
{
    const Addr block = blockAlign(addr);
    CacheArray::Line l2line = l2_.lookup(block);
    if (!l2line)
        return false;
    vc_.extract(block);
    return static_cast<bool>(installL1(block, l2line));
}

void
CacheAgent::setExternalBlocked(bool blocked)
{
    const bool was = externalBlocked_;
    externalBlocked_ = blocked;
    if (was && !blocked)
        serveDeferred();
}

void
CacheAgent::deliver(const Msg& msg)
{
    IF_HOT;
    switch (msg.type) {
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
        handleFill(msg);
        return;
      case MsgType::FwdGetS:
      case MsgType::FwdGetM:
      case MsgType::Inv:
        handleExternal(msg);
        return;
      case MsgType::WbAck:
      case MsgType::AckStale:
        handleWbAck(msg);
        return;
      default:
        IF_PANIC("agent %u: unexpected message %s", node_,
                 msgTypeName(msg.type).data());
    }
}

void
CacheAgent::completeLocalFill(Addr block, FillWaiter cb, int attempt,
                              CacheArray::Handle l2h)
{
    // Revalidate: an external request may have taken the block away
    // while the fill was pending. The pinned handle answers in O(1)
    // while its frame is untouched; otherwise the tag scan decides.
    CacheArray::Line l2line = l2_.resolve(l2h);
    if (!l2line)
        l2line = l2_.lookup(block);
    if (l2line) {
        if (!installL1(block, l2line)) {
            // Speculative overflow: wait for the store buffer to drain
            // and the speculation to commit (bounded by a hard abort).
            ++statDeferredFills;
            if (attempt >= 200 && listener_)
                listener_->resolveSpecEvictionHard(block);
            eq_.schedule(10, [this, block, cb, attempt]() {
                completeLocalFill(block, cb, attempt + 1);
            }, node_);
            return;
        }
        ++statL1FillsLocal;
    }
    if (cb)
        cb();
}

void
CacheAgent::runLocalFillBatch(std::uint32_t slot)
{
    // Move the waiters out first: a waiter can re-enter request() and
    // grow localBatches_, invalidating references into the slab.
    const Addr block = localBatches_[slot].block;
    const CacheArray::Handle l2h = localBatches_[slot].l2h;
    std::vector<FillWaiter> waiters =
        std::move(localBatches_[slot].waiters);
    // Each waiter revalidates/defers independently, exactly as the N
    // adjacent per-waiter events it replaces would have.
    for (const FillWaiter& cb : waiters)
        completeLocalFill(block, cb, 0, l2h);
    waiters.clear();
    LocalFillBatch& b = localBatches_[slot];
    b.waiters = std::move(waiters);   // recycle the capacity
    b.nextFree = freeBatch_;
    freeBatch_ = slot;
}

void
CacheAgent::handleFill(const Msg& msg)
{
    Mshr* m = mshrs_.lookup(msg.blockAddr, Mshr::Kind::Fetch);
    if (!m) {
        IF_PANIC("agent %u: fill %s with no MSHR blk=%llx", node_,
                 msgTypeName(msg.type).data(),
                 static_cast<unsigned long long>(msg.blockAddr));
    }
    IF_DBG_ASSERT(msg.hasData);

    CoherenceState state = CoherenceState::Shared;
    if (msg.type == MsgType::DataE || msg.type == MsgType::DataM)
        state = CoherenceState::Exclusive;

    installL2(msg.blockAddr, msg.data, state);
    ++statL1FillsRemote;
    finishFill(msg.blockAddr, 0);
}

void
CacheAgent::finishFill(Addr block, int attempt)
{
    Mshr* m = mshrs_.lookup(block, Mshr::Kind::Fetch);
    if (!m)
        return;

    CacheArray::Line l2line = l2_.lookup(block);
    if (!l2line) {
        // Stolen while the install was deferred: reissue the fetch; the
        // next data response restarts this path.
        m->issuedWrite = m->wantWrite;
        sendRequest(m, m->wantWrite ? MsgType::GetM : MsgType::GetS,
                    nullptr, false);
        return;
    }

    if (!installL1(block, l2line)) {
        // Speculative overflow (Section 4.1): defer the fill while the
        // store buffer drains so the speculation can commit, with a
        // bounded fallback to abort for forward progress.
        ++statDeferredFills;
        if (attempt >= 200 && listener_)
            listener_->resolveSpecEvictionHard(block);
        eq_.schedule(10, [this, block, attempt]() {
            finishFill(block, attempt + 1);
        }, node_);
        return;
    }

    const bool writable = isWritable(l2line.state());

    // Wake readers unconditionally; they only need a valid copy. The
    // chain is detached before running (callbacks may re-enter the
    // agent and push fresh waiters onto the MSHR) and each node is
    // recycled into the shared slab before its callback executes.
    std::uint32_t reader = mshrs_.takeWaiters(m->readWaiters);
    while (reader != kNoWaiter) {
        FillWaiter fn = mshrs_.takeWaiterAndAdvance(reader);
        fn();
    }

    if (m->wantWrite) {
        if (writable) {
            // free() audit: both chains are provably empty here — the
            // read chain was detached above and the write chain is
            // detached now, before the free; the reader wakes between
            // them bind/replay ROB entries without re-entering
            // request() on this block.
            std::uint32_t writer = mshrs_.takeWaiters(m->writeWaiters);
            mshrs_.free(m);
            --fetchCount_;
            while (writer != kNoWaiter) {
                FillWaiter fn = mshrs_.takeWaiterAndAdvance(writer);
                fn();
            }
        } else if (!m->issuedWrite) {
            // GetS answered with a Shared copy but a writer is waiting:
            // upgrade with a follow-on GetM.
            m->issuedWrite = true;
            ++statUpgrades;
            sendRequest(m, MsgType::GetM, nullptr, false);
        }
        // else: a GetM is already in flight; its fill finishes the job.
    } else {
        // free() audit: !wantWrite means no write waiter was ever
        // pushed, and the read chain was detached above — both chains
        // are empty.
        mshrs_.free(m);
        --fetchCount_;
    }
}

void
CacheAgent::handleExternal(const Msg& msg)
{
    if (externalBlocked_) {
        ++statExternalDeferred;
        deferred_.push_back(msg);
        return;
    }
    const Addr block = msg.blockAddr;
    const bool wants_write =
        msg.type == MsgType::FwdGetM || msg.type == MsgType::Inv;

    const CacheArray::Line l1line = l1_.lookup(block);
    // Pin the resolution BEFORE consulting the listener: an abort
    // flash-invalidates the frame and bumps its generation, which is
    // exactly what the revalidation in serveExternal must observe.
    const CacheArray::Handle l1h =
        l1line ? l1line.handle() : CacheArray::Handle{};
    const bool conflict =
        l1line && (l1line.specWrittenAny() ||
                   (wants_write && l1line.specReadAny()));
    if (conflict && listener_) {
        const auto action = listener_->onSpecConflict(block, wants_write);
        if (action == CoherenceListener::ExtAction::Defer) {
            ++statExternalDeferred;
            deferred_.push_back(msg);
            return;
        }
        // The listener committed or aborted; all speculative bits that
        // conflicted are resolved now and serving is safe.
    }
    serveExternal(msg, l1h);
}

void
CacheAgent::serveExternal(const Msg& msg, CacheArray::Handle l1h)
{
    const Addr block = msg.blockAddr;
    ++statExternalServed;
    CacheArray::Line l2line = l2_.lookup(block);
    // O(1) revalidation of the caller's resolution: an abort may have
    // flash-invalidated the frame (generation mismatch -> null), but
    // nothing between resolution and service can *install* the block.
    CacheArray::Line l1line = l1_.resolve(l1h);
    IF_DBG_ASSERT(l1line == l1_.lookup(block) &&
           "revalidated handle disagrees with a fresh lookup");
    IF_DBG_ASSERT(!(l1line && l1line.specWrittenAny()) &&
           "serving external request from speculatively-written block");

    switch (msg.type) {
      case MsgType::FwdGetS: {
        if (l2line) {
            syncL2FromL1(l1line, l2line);
            const bool dirty = l2line.state() == CoherenceState::Modified;
            sendToHome(MsgType::DataToHome, block, &l2line.data(), dirty);
            // Home writes memory; our retained copy becomes a clean
            // Shared one, at both levels.
            l2line.setState(CoherenceState::Shared);
            if (l1line)
                l1line.setState(CoherenceState::Shared);
        } else if (Mshr* wb = mshrs_.lookup(block, Mshr::Kind::Writeback)) {
            sendToHome(MsgType::DataToHome, block, &wb->wbData,
                       wb->wbDirty);
            if (params_.faultTolerant) {
                // The home's transaction just consumed the retained
                // data, so our in-flight Put is moot: free the MSHR now
                // (stopping its retry timer). The original Put either
                // arrives stale (AckStale, orphan-counted) or was
                // dropped (nothing outstanding).
                mshrs_.free(wb);
            } else {
                wb->ownershipLost = true;
            }
        } else {
            IF_PANIC("agent %u: FwdGetS for absent block %llx", node_,
                     static_cast<unsigned long long>(block));
        }
        break;
      }
      case MsgType::FwdGetM: {
        if (l2line) {
            syncL2FromL1(l1line, l2line);
            const bool dirty = l2line.state() == CoherenceState::Modified;
            sendToHome(MsgType::DataToHome, block, &l2line.data(), dirty);
            if (l1line)
                l1line.invalidate();
            vc_.invalidate(block);
            l2line.invalidate();
        } else if (Mshr* wb = mshrs_.lookup(block, Mshr::Kind::Writeback)) {
            sendToHome(MsgType::DataToHome, block, &wb->wbData,
                       wb->wbDirty);
            if (params_.faultTolerant) {
                mshrs_.free(wb);   // see the FwdGetS twin above
            } else {
                wb->ownershipLost = true;
            }
        } else {
            IF_PANIC("agent %u: FwdGetM for absent block %llx", node_,
                     static_cast<unsigned long long>(block));
        }
        if (listener_)
            listener_->onInvalidateApplied(block);
        break;
      }
      case MsgType::Inv: {
        if (l1line)
            l1line.invalidate();
        vc_.invalidate(block);
        if (l2line)
            l2line.invalidate();
        sendToHome(MsgType::InvAck, block, nullptr, false);
        if (listener_)
            listener_->onInvalidateApplied(block);
        break;
      }
      default:
        IF_PANIC("serveExternal on %s", msgTypeName(msg.type).data());
    }
}

void
CacheAgent::serveDeferred()
{
    if (externalBlocked_ || deferred_.empty())
        return;
    // Drain into recycled scratch first: handleExternal may re-defer
    // (CoV windows) or re-enter serveDeferred via an abort.
    auto pending = takeScratch(msgScratchPool_);
    for (const Msg& msg : deferred_)
        hotPush(pending, msg);
    deferred_.clear();
    for (const Msg& msg : pending)
        handleExternal(msg);
    putScratch(msgScratchPool_, std::move(pending));
}

void
CacheAgent::handleWbAck(const Msg& msg)
{
    Mshr* wb = mshrs_.lookup(msg.blockAddr, Mshr::Kind::Writeback);
    if (!wb) {
        if (params_.faultTolerant) {
            // Ack for a writeback already resolved another way: a
            // forward consumed the data (early free above), the retry
            // path abandoned it, or a duplicated Put drew two acks.
            ++statOrphanWbAcks;
            return;
        }
        IF_PANIC("agent %u: %s with no writeback MSHR", node_,
                 msgTypeName(msg.type).data());
    }
    // free() audit: waiter chains exist only on Fetch-kind MSHRs
    // (request() pushes them); a writeback MSHR's chains stay empty.
    mshrs_.free(wb);
}

void
CacheAgent::registerStats(StatRegistry& reg,
                          const std::string& prefix) const
{
    reg.registerStat(prefix + ".l1_fills_local", &statL1FillsLocal);
    reg.registerStat(prefix + ".l1_fills_remote", &statL1FillsRemote);
    reg.registerStat(prefix + ".upgrades", &statUpgrades);
    reg.registerStat(prefix + ".external_served", &statExternalServed);
    reg.registerStat(prefix + ".external_deferred",
                     &statExternalDeferred);
    reg.registerStat(prefix + ".clean_writebacks",
                     &statCleanWritebacks);
    reg.registerStat(prefix + ".forced_spec_evictions",
                     &statForcedSpecEvictions);
    reg.registerStat(prefix + ".deferred_fills", &statDeferredFills);
    reg.registerStat(prefix + ".l2_evictions", &statL2Evictions);
    reg.registerStat(prefix + ".mshr.allocations",
                     &mshrs_.statAllocations);
    reg.registerStat(prefix + ".mshr.full_stalls",
                     &mshrs_.statFullStalls);
    reg.registerStat(prefix + ".mshr.waiter_dedups",
                     &mshrs_.statWaiterDedups);
    reg.registerStat(prefix + ".retries", &statRetries);
    reg.registerStat(prefix + ".orphan_wb_acks", &statOrphanWbAcks);
    reg.registerStat(prefix + ".wb_abandoned", &statWbAbandoned);
    reg.registerStat(prefix + ".retry_backoff_max",
                     &statRetryBackoffMax);
}

CacheArray::Line
CacheAgent::installL2(Addr block, const BlockData& data,
                      CoherenceState state)
{
    if (CacheArray::Line existing = l2_.lookup(block)) {
        // Refresh, e.g. the upgrade fill of a Shared copy: an L1 copy
        // takes the new state with it.
        existing.data() = data;
        existing.setState(state);
        if (const CacheArray::Line l1line = l1_.lookup(block))
            l1line.setState(state);
        l2_.touch(existing);
        return existing;
    }

    bool forced = false;
    const auto avoid = [this](const CacheArray::Line& line) {
        const CacheArray::Line l1line = l1_.lookup(line.blockAddr());
        return l1line && l1line.speculative();
    };
    CacheArray::Line victim = l2_.findVictim(block, avoid, &forced);
    if (forced) {
        IF_DBG_ASSERT(listener_);
        ++statForcedSpecEvictions;
        if (!listener_->resolveSpecEviction(victim.blockAddr()))
            listener_->resolveSpecEvictionHard(victim.blockAddr());
        victim = l2_.findVictim(block, avoid, &forced);
        IF_DBG_ASSERT(!forced && "speculation unresolved after forced eviction");
    }
    if (victim.valid())
        evictL2Line(victim);

    victim.install(block, state);
    victim.data() = data;
    l2_.touch(victim);
    return victim;
}

CacheArray::Line
CacheAgent::installL1(Addr block, CacheArray::Line l2line)
{
    IF_DBG_ASSERT(l2line && l2line.valid() &&
           "L1 install without L2 backing (inclusion violated)");

    if (CacheArray::Line existing = l1_.lookup(block)) {
        // Refresh data from the L2 only when the L1 copy is clean;
        // a dirty L1 copy is newer than the L2's. The state needs no
        // refresh: installL2 already set it at both levels.
        IF_DBG_ASSERT(existing.state() == l2line.state());
        if (!existing.dirty())
            existing.data() = l2line.data();
        l1_.touch(existing);
        if (listener_)
            listener_->onL1Install(block);
        return existing;
    }

    bool forced = false;
    const auto avoid = [](const CacheArray::Line& line) {
        return line.speculative();
    };
    CacheArray::Line victim = l1_.findVictim(block, avoid, &forced);
    if (forced) {
        IF_DBG_ASSERT(listener_);
        ++statForcedSpecEvictions;
        if (!listener_->resolveSpecEviction(victim.blockAddr()))
            return {};   // caller defers the fill and retries
        victim = l1_.findVictim(block, avoid, &forced);
        IF_DBG_ASSERT(!forced && "speculation unresolved after forced eviction");
    }
    if (victim.valid()) {
        // Non-speculative L1 victim: propagate dirty data to the L2 and
        // keep a clean low-latency copy in the victim cache.
        IF_DBG_ASSERT(!victim.speculative());
        if (victim.dirty())
            syncL2FromL1(victim, l2_.lookup(victim.blockAddr()));
        vc_.insert(victim.blockAddr());
        victim.invalidate();
    }

    victim.install(block, l2line.state());
    victim.data() = l2line.data();
    l1_.touch(victim);
    if (listener_)
        listener_->onL1Install(block);
    return victim;
}

void
CacheAgent::syncL2FromL1(CacheArray::Line l1line, CacheArray::Line l2line)
{
    if (!l1line || !l1line.dirty())
        return;
    // A dirty L1 line is Modified, so its L2 line already is too.
    IF_DBG_ASSERT(l2line && l1line.state() == CoherenceState::Modified &&
           l2line.state() == CoherenceState::Modified &&
           "dirty L1 line without Modified L2 backing");
    l2line.data() = l1line.data();
    l1line.setDirty(false);
}

void
CacheAgent::evictL2Line(CacheArray::Line line)
{
    const Addr block = line.blockAddr();
    ++statL2Evictions;

    // Inclusion: purge the L1 copy (speculative lines were resolved by
    // the avoidance logic in installL2) and the victim cache copy.
    if (CacheArray::Line l1line = l1_.lookup(block)) {
        IF_DBG_ASSERT(!l1line.speculative());
        syncL2FromL1(l1line, line);
        l1line.invalidate();
    }
    vc_.invalidate(block);
    if (listener_)
        listener_->onInvalidateApplied(block);

    // The data is retained in a writeback MSHR until the home
    // acknowledges, so crossing forwards can still be served.
    Mshr* wb = mshrs_.allocate(block, Mshr::Kind::Writeback);
    if (!wb) {
        IF_PANIC("agent %u: MSHR pool exhausted for writeback of %llx",
                 node_, static_cast<unsigned long long>(block));
    }
    wb->wbData = line.data();
    wb->wbDirty = line.state() == CoherenceState::Modified;

    switch (line.state()) {
      case CoherenceState::Modified:
        wb->wbType = MsgType::PutM;
        sendRequest(wb, MsgType::PutM, &wb->wbData, true);
        break;
      case CoherenceState::Exclusive:
        wb->wbType = MsgType::PutE;
        sendRequest(wb, MsgType::PutE, nullptr, false);
        break;
      case CoherenceState::Shared:
        wb->wbType = MsgType::PutS;
        sendRequest(wb, MsgType::PutS, nullptr, false);
        break;
      case CoherenceState::Invalid:
        IF_PANIC("evicting invalid L2 line");
    }
    line.invalidate();
}

void
CacheAgent::sendToHome(MsgType type, Addr block, const BlockData* data,
                       bool dirty, std::uint32_t txn_id)
{
    Msg m;
    m.type = type;
    m.blockAddr = blockAlign(block);
    m.src = node_;
    m.dst = homeMap_.homeOf(block);
    m.dstUnit = Unit::Directory;
    m.requester = node_;
    m.txnId = txn_id;
    if (data) {
        m.data = *data;
        m.hasData = true;
    }
    m.dirty = dirty;
    net_.send(m);
}

void
CacheAgent::sendRequest(Mshr* m, MsgType type, const BlockData* data,
                        bool dirty)
{
    if (params_.faultTolerant) {
        // Fresh id per (re)issued request: reissues open a *new*
        // directory transaction, so they must not collide with the
        // dedup record of the one they replace.
        m->txnId = nextTxnId_++;
        m->retryAttempt = 0;
        if (params_.retryTimeout != 0)
            armRetry(m->blockAddr, m->kind, m->txnId, 0);
    }
    sendToHome(type, m->blockAddr, data, dirty, m->txnId);
}

Cycle
CacheAgent::backoffFor(std::uint32_t attempt) const
{
    // Exponential backoff: timeout * 2^attempt, capped. bitOf keeps the
    // shift width-checked; the exponent is clamped far below 64 anyway.
    const Cycle raw =
        params_.retryTimeout *
        static_cast<Cycle>(bitOf<std::uint64_t>(std::min(attempt, 16u)));
    const Cycle cap = std::max(params_.retryBackoffCap,
                               params_.retryTimeout);
    return std::min(raw, cap);
}

void
CacheAgent::armRetry(Addr block, Mshr::Kind kind, std::uint32_t txn,
                     std::uint32_t attempt)
{
    const Cycle backoff = backoffFor(attempt);
    statRetryBackoffMax = std::max(statRetryBackoffMax,
                                   static_cast<std::uint64_t>(backoff));
    // No wake tag: the deadline only inspects MSHRs and (re)sends
    // messages; it never touches the core. The closure is a bounded
    // trivially-copyable capture living in the pooled event slot — no
    // per-timeout heap allocation.
    eq_.schedule(backoff, [this, block, kind, txn, attempt]() {
        onRetryTimer(block, kind, txn, attempt);
    });
}

void
CacheAgent::onRetryTimer(Addr block, Mshr::Kind kind, std::uint32_t txn,
                         std::uint32_t attempt)
{
    Mshr* m = mshrs_.lookup(block, kind);
    if (!m || m->txnId != txn)
        return;   // completed or superseded since arming: stale timer
    if (kind == Mshr::Kind::Writeback) {
        if (mshrs_.lookup(block, Mshr::Kind::Fetch)) {
            // A fetch for the same block is in flight; its resolution
            // decides this writeback's fate (the home may forward it
            // back to us for the retained data). Check again later, at
            // the same attempt — the fetch has its own retry bound.
            armRetry(block, kind, txn, attempt);
            return;
        }
        if (l2_.lookup(block)) {
            // We own/share the block again (the home re-granted it
            // after the original Put, or a duplicate resolved the
            // eviction): the directory's state is consistent with our
            // possession, so retransmitting the Put would corrupt it —
            // e.g. a stale PutS clearing a live sharer bit. Abandon.
            ++statWbAbandoned;
            mshrs_.free(m);
            return;
        }
    }
    if (attempt >= params_.retryMax) {
        IF_PANIC("agent %u: request blk=%llx txn=%u still unanswered "
                 "after %u retries (unrecoverable loss?)",
                 node_, static_cast<unsigned long long>(block), txn,
                 attempt);
    }
    m->retryAttempt = attempt + 1;
    ++statRetries;
    if (kind == Mshr::Kind::Writeback) {
        const bool has_data = m->wbType == MsgType::PutM;
        sendToHome(m->wbType, block, has_data ? &m->wbData : nullptr,
                   has_data && m->wbDirty, txn);
    } else {
        sendToHome(m->issuedWrite ? MsgType::GetM : MsgType::GetS, block,
                   nullptr, false, txn);
    }
    armRetry(block, kind, txn, attempt + 1);
}

} // namespace invisifence
