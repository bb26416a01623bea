/**
 * @file
 * Abstract micro-op ISA.
 *
 * The workloads' memory-ordering behaviour depends only on the stream of
 * loads, stores, atomics, and fences, so the ISA is deliberately small:
 * it substitutes for the paper's full-system SPARC execution, keeping
 * only what ordering depends on. All memory operations are 8-byte,
 * word-aligned accesses. Atomic read-modify-write operations (CAS and
 * fetch-and-add) produce the old memory value as their result.
 */

#ifndef INVISIFENCE_CPU_INSTRUCTION_HH
#define INVISIFENCE_CPU_INSTRUCTION_HH

#include <cstdint>

#include "sim/types.hh"

namespace invisifence {

/** Micro-op kinds. */
enum class OpType : std::uint8_t
{
    Alu,       //!< non-memory work with a fixed latency
    Load,      //!< 8-byte load
    Store,     //!< 8-byte store of @c value
    Cas,       //!< compare-and-swap: if mem == expect then mem = value
    FetchAdd,  //!< fetch-and-add: mem += value; result = old value
    Fence,     //!< full memory barrier (MEMBAR #Sync-style)
    Nop,
    Halt,      //!< end of a finite program (litmus tests)
};

constexpr bool
isMemOp(OpType t)
{
    return t == OpType::Load || t == OpType::Store || t == OpType::Cas ||
           t == OpType::FetchAdd;
}

/** Operations that read memory and produce a value. */
constexpr bool
isLoadLike(OpType t)
{
    return t == OpType::Load || t == OpType::Cas || t == OpType::FetchAdd;
}

/** Operations that (may) write memory. */
constexpr bool
isStoreLike(OpType t)
{
    return t == OpType::Store || t == OpType::Cas || t == OpType::FetchAdd;
}

constexpr bool
isAtomic(OpType t)
{
    return t == OpType::Cas || t == OpType::FetchAdd;
}

/** One fetched micro-op. */
struct Instruction
{
    OpType type = OpType::Nop;
    Addr addr = 0;               //!< word-aligned effective address
    std::uint64_t value = 0;     //!< store data / CAS new value / add delta
    std::uint64_t expect = 0;    //!< CAS comparand
    std::uint8_t latency = 1;    //!< execution latency for Alu ops

    /**
     * Fences come in two strengths. Acquire/release fences (the
     * annotations lock code needs under RC models) are free under SC and
     * TSO, which already provide those orderings; only RMO must drain
     * for them. Full fences (the StoreLoad barriers of lock-free code)
     * drain under TSO and RMO both. This mirrors the paper's
     * methodology of inserting fences at lock operations only for the
     * RMO runs (Section 6.1).
     */
    bool fullFence = false;

    /**
     * True when the program's subsequent control flow depends on this
     * instruction's result (e.g., a CAS in a lock-acquire loop or a load
     * in a spin loop). The program continues fetching assuming
     * @c predictedResult; the core verifies at retirement and squashes
     * younger instructions on a mismatch, exactly like a branch
     * misprediction.
     */
    bool feedsBack = false;
    std::uint64_t predictedResult = 0;
};

} // namespace invisifence

#endif // INVISIFENCE_CPU_INSTRUCTION_HH
