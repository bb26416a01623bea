/**
 * @file
 * Growable ring-buffer FIFO that never releases its storage.
 *
 * std::deque allocates and frees fixed-size chunks as elements flow
 * through it, so a steady push/pop stream (FIFO store buffers, deferred
 * external requests, per-block directory queues) churns the heap forever.
 * RingDeque grows like a vector but recycles its slots in place: after a
 * warmup that reaches the high-water mark, pushes and pops are pure index
 * arithmetic with zero allocations. Elements must be trivially copyable
 * (everything queued on the simulator's hot paths is), which makes the
 * occasional growth relinearization a pair of memcpys.
 */

#ifndef INVISIFENCE_SIM_RING_DEQUE_HH
#define INVISIFENCE_SIM_RING_DEQUE_HH

#include "sim/annotations.hh"
#include <cstddef>
#include <type_traits>
#include <vector>

namespace invisifence {

/** FIFO over a recycled ring of slots; iterable oldest to youngest. */
template <typename T>
class RingDeque
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "RingDeque elements must be trivially copyable");

  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void
    push_back(const T& v)
    {
        if (size_ == slots_.size())
            grow();
        slots_[index(size_)] = v;
        ++size_;
    }

    T& front() { return slots_[head_]; }
    const T& front() const { return slots_[head_]; }

    void
    pop_front()
    {
        IF_DBG_ASSERT(size_ > 0);
        ++head_;
        if (head_ == slots_.size())
            head_ = 0;
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /**
     * Presize the ring to at least @p n slots. Structures with an
     * architectural capacity (store buffers, bounded queues) reserve it
     * up front — fixed SRAM in the modeled hardware — so the high-water
     * march never allocates mid-simulation.
     */
    void
    reserve(std::size_t n)
    {
        if (n <= slots_.size())
            return;
        std::vector<T> next(n);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = slots_[index(i)];
        slots_.swap(next);
        head_ = 0;
    }

    T& operator[](std::size_t i) { return slots_[index(i)]; }
    const T& operator[](std::size_t i) const { return slots_[index(i)]; }

    /** Minimal random-access iterator (enough for range-for / loops). */
    template <typename Q, typename Ref>
    class Iter
    {
      public:
        Iter(Q* q, std::size_t i) : q_(q), i_(i) {}
        Ref operator*() const { return (*q_)[i_]; }
        Iter& operator++() { ++i_; return *this; }
        bool operator!=(const Iter& o) const { return i_ != o.i_; }
        bool operator==(const Iter& o) const { return i_ == o.i_; }

      private:
        Q* q_;
        std::size_t i_;
    };
    using iterator = Iter<RingDeque, T&>;
    using const_iterator = Iter<const RingDeque, const T&>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, size_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    /** Ring slot of element @p i without an integer division: head_
     *  and @p i are both below the slot count, so one subtraction
     *  wraps. */
    std::size_t
    index(std::size_t i) const
    {
        IF_DBG_ASSERT(i < slots_.size());
        const std::size_t s = head_ + i;
        return s < slots_.size() ? s : s - slots_.size();
    }

    IF_COLD_FN void
    grow()
    {
        IF_COLD_ALLOC("ring doubling: capacity tracks the deepest "
                      "backlog seen (warmup); pop/push at steady state "
                      "reuses the ring in place");
        const std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = slots_[index(i)];
        slots_.swap(next);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace invisifence

#endif // INVISIFENCE_SIM_RING_DEQUE_HH
