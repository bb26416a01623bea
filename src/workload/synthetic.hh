/**
 * @file
 * Statistical workload generator standing in for the paper's commercial
 * and scientific applications (Figure 7). Substitution: instead of
 * full-system binaries, each preset reproduces an application's
 * ordering-relevant mix (stores, atomics, fences, sharing, locking).
 *
 * Each thread is a deterministic automaton mixing private computation,
 * shared-data accesses, lock-protected critical sections (CAS acquire,
 * fenced, spin-on-contention), lock-free atomics, and standalone fences.
 * All state is POD, so the core's snapshot/restore rewinds the generator
 * exactly on squash and abort; contended CAS acquires really do spin via
 * the result-misprediction replay mechanism.
 */

#ifndef INVISIFENCE_WORKLOAD_SYNTHETIC_HH
#define INVISIFENCE_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <vector>

#include "cpu/program.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace invisifence {

/** Tuning knobs of one synthetic workload class. */
struct SyntheticParams
{
    // Instruction mix (per-mille of non-special instructions).
    std::uint32_t aluPermille = 550;
    std::uint32_t loadPermille = 300;   //!< rest are stores

    // Rates of special events (per 64k instructions).
    std::uint32_t lockPer64k = 300;     //!< critical-section entries
    std::uint32_t fencePer64k = 100;    //!< standalone fences
    std::uint32_t atomicPer64k = 60;    //!< lock-free fetch-and-add

    // Footprints, in 64-byte blocks.
    std::uint32_t privateBlocks = 4096;   //!< 256 KB / thread
    std::uint32_t sharedBlocks = 512;     //!< read-mostly shared region
    std::uint32_t numLocks = 64;
    std::uint32_t lockDataBlocks = 8;     //!< protected blocks per lock

    // Behavior.
    std::uint32_t sharedPermille = 100;   //!< stores hitting shared data
                                          //!< (loads: a quarter of this)
    std::uint32_t sharedWritePermille = 550;  //!< store share of CS bodies
    std::uint32_t csLength = 12;          //!< ops per critical section
    std::uint32_t storeBurst = 1;         //!< consecutive stores per store
    std::uint8_t aluLatency = 1;
    std::uint8_t backoffLatency = 12;     //!< spin backoff ALU latency
    /** Shared-region addressing: 0 = uniform (the legacy behavior every
     *  committed golden depends on), 1 = Zipf(s=1) over the shared
     *  blocks — the hot-key skew of server workloads. Sampling is
     *  integer-only (a precomputed cumulative-weight table), so results
     *  are bit-identical across hosts. */
    std::uint32_t zipfShared = 0;
};

/** Base of the shared address map (locks, lock data, shared region). */
constexpr Addr kLockRegion = 0x0100'0000;
constexpr Addr kLockDataRegion = 0x0200'0000;
constexpr Addr kSharedRegion = 0x0400'0000;
constexpr Addr kPrivateRegion = 0x1000'0000;
constexpr Addr kPrivateStride = 0x0100'0000;   //!< per-thread carve-out

/** Address of lock @p i (one word per block, avoids false sharing). */
constexpr Addr
lockAddr(std::uint32_t i)
{
    return kLockRegion + static_cast<Addr>(i) * kBlockBytes;
}

/** Deterministic, rewindable synthetic thread. */
class SyntheticProgram : public ThreadProgram
{
  public:
    SyntheticProgram(const SyntheticParams& params, std::uint32_t tid,
                     std::uint64_t seed);

    Instruction fetchNext() override;
    void snapshotTo(ProgSnapshot& out) const override;
    void restoreFrom(const ProgSnapshot& in) override;
    void setLastResult(std::uint64_t value) override;

    /** Current phase, for tests. */
    enum class Phase : std::uint8_t
    {
        Normal,
        AfterAcquireCas,   //!< CAS emitted; outcome pending
        SpinLoad,          //!< backoff; spin-load the lock word
        AfterSpinLoad,
        AcquiredFence,     //!< acquire barrier before the body
        CritBody,
        ReleaseFence,
        ReleaseStore,
    };
    Phase phase() const { return static_cast<Phase>(state_.phase); }

  private:
    /** POD automaton state: everything the checkpoint must capture. */
    struct State
    {
        Rng rng{1};
        std::uint64_t lastResult = 0;
        std::uint8_t phase = 0;
        std::uint8_t csRemaining = 0;
        std::uint16_t lockIdx = 0;
        std::uint8_t burstRemaining = 0;
        std::uint64_t privCursor = 0;    //!< walks the private footprint
    };

    Instruction normalInstruction();
    Instruction makeLoad(Addr a) const;
    Instruction makeStore(Addr a, std::uint64_t v) const;
    Addr randomPrivateAddr();
    Addr randomSharedAddr();
    Addr randomLockDataAddr() const;

    SyntheticParams params_;
    std::uint32_t tid_;
    State state_;
    /** Cumulative Zipf block weights (immutable after construction, so
     *  snapshot/restore need not capture it); empty = uniform. */
    std::vector<std::uint64_t> zipfCdf_;
};

} // namespace invisifence

#endif // INVISIFENCE_WORKLOAD_SYNTHETIC_HH
