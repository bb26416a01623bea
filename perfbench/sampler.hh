/**
 * @file
 * PC-sampling profiler for the benchmark's traced run.
 *
 * A POSIX interval timer on CLOCK_MONOTONIC raises SIGPROF every
 * period; the handler appends the interrupted program counter to a
 * preallocated buffer (no allocation, no locks, so it is safe to run
 * inside the simulator's hot loop). The process is single-threaded, so
 * wall-clock sampling of a CPU-bound loop measures where CPU time goes,
 * at a far finer grain than ITIMER_PROF's scheduler-tick resolution.
 *
 * PCs are reported relative to the main executable's load address, so
 * they can be looked up in its symbol table offline; PCs outside the
 * executable (libc, libstdc++, the vDSO) are only counted.
 */

#ifndef PERFBENCH_SAMPLER_HH
#define PERFBENCH_SAMPLER_HH

#include <cstddef>
#include <cstdint>
#include <map>

namespace perfbench {

class PcSampler
{
  public:
    /** Arms nothing yet; reserves room for @p capacity samples. Samples
     *  beyond it are lost, so size it for the process's lifetime. */
    PcSampler(std::size_t capacity, long period_ns);
    ~PcSampler();
    PcSampler(const PcSampler&) = delete;
    PcSampler& operator=(const PcSampler&) = delete;

    void start();
    /** Disarm, and fold the buffered samples into the histograms. */
    void stop();

    /** Samples inside the executable, by PC relative to its load base. */
    const std::map<std::uint64_t, std::uint64_t>& histogram() const
    {
        return hist_;
    }
    std::uint64_t external() const { return external_; }

  private:
    long periodNs_;
    void* timer_ = nullptr;
    std::uintptr_t bias_ = 0;
    std::uintptr_t textLo_ = 0;
    std::uintptr_t textHi_ = 0;
    std::map<std::uint64_t, std::uint64_t> hist_;
    std::uint64_t external_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SAMPLER_HH
