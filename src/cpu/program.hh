/**
 * @file
 * Replayable thread programs.
 *
 * A ThreadProgram is a deterministic automaton that emits the instruction
 * stream of one hardware thread. Its complete state (including any
 * embedded RNG and the last predicted result) fits in a small POD
 * snapshot, so the core can rewind it: in-window squashes, result
 * mispredictions, and InvisiFence aborts all restore a snapshot and
 * re-fetch, making rollback architecturally real. The program snapshot
 * plays the role of the paper's register checkpoint.
 */

#ifndef INVISIFENCE_CPU_PROGRAM_HH
#define INVISIFENCE_CPU_PROGRAM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "cpu/instruction.hh"

namespace invisifence {

/** Fixed-size POD snapshot of a program's architectural state. */
struct ProgSnapshot
{
    static constexpr std::size_t kMaxBytes = 64;
    std::array<std::uint8_t, kMaxBytes> bytes{};
};

/** Serialize a trivially-copyable state struct into a snapshot. */
template <typename State>
void
podSnapshot(const State& state, ProgSnapshot& out)
{
    static_assert(std::is_trivially_copyable_v<State>);
    static_assert(sizeof(State) <= ProgSnapshot::kMaxBytes,
                  "program state too large for ProgSnapshot");
    std::memcpy(out.bytes.data(), &state, sizeof(State));
}

/** Restore a state struct from a snapshot. */
template <typename State>
void
podRestore(State& state, const ProgSnapshot& in)
{
    static_assert(std::is_trivially_copyable_v<State>);
    std::memcpy(&state, in.bytes.data(), sizeof(State));
}

/** Deterministic, rewindable instruction source for one thread. */
class ThreadProgram
{
  public:
    virtual ~ThreadProgram() = default;

    /**
     * Advance the automaton and return the next instruction. When the
     * returned instruction has @c feedsBack set, the program must have
     * already continued under the assumption that the result equals
     * @c predictedResult.
     */
    virtual Instruction fetchNext() = 0;

    /** Capture the full program state (architectural checkpoint). */
    virtual void snapshotTo(ProgSnapshot& out) const = 0;

    /** Rewind to a previously captured state. */
    virtual void restoreFrom(const ProgSnapshot& in) = 0;

    /**
     * After restoreFrom() of the snapshot taken just after a mispredicted
     * instruction, inform the program of that instruction's actual
     * result; subsequent fetchNext() calls emit the corrected path.
     */
    virtual void setLastResult(std::uint64_t value) = 0;
};

} // namespace invisifence

#endif // INVISIFENCE_CPU_PROGRAM_HH
