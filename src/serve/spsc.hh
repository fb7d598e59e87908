/**
 * @file
 * SpscRing: a bounded lock-free single-producer / single-consumer
 * ring buffer — the per-client ingest queue of the predictd engine.
 *
 * The shape follows the per-producer log buffers of RACoherence-style
 * designs and the tracer's ThreadBuf: exactly one thread pushes and
 * exactly one thread pops, so the only synchronization needed is a
 * release store of each index and an acquire load on the other side.
 * Head and tail live on separate cache lines so the producer and the
 * consumer never false-share.
 *
 * Each side also keeps a private copy of the other side's index on
 * its own index line: the producer re-reads head_ only when its copy
 * says the ring is full, and the consumer re-reads tail_ only when
 * its copy shows too few items.  In steady streaming the index lines
 * then move between cores once per burst, not once per item — the
 * producer-consumer coherence traffic the predictors of this project
 * learn.  consume() serves a whole burst and releases its slots with
 * one head_ store.
 *
 * Capacity is rounded up to a power of two; one slot is sacrificed to
 * distinguish full from empty, the classic ring discipline.
 */

#ifndef CCP_SERVE_SPSC_HH
#define CCP_SERVE_SPSC_HH

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <vector>

namespace ccp::serve {

template <typename T>
class SpscRing
{
  public:
    /** @param capacity requested slot count (>= 2; rounded up to a
     *  power of two — usable capacity is one less than that). */
    explicit SpscRing(std::size_t capacity)
        : slots_(std::bit_ceil(capacity < 2 ? std::size_t(2)
                                            : capacity)),
          mask_(slots_.size() - 1)
    {
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    /** Usable slots (one less than the power-of-two allocation). */
    std::size_t capacity() const { return slots_.size() - 1; }

    /** Producer only: enqueue @p value; false when full. */
    bool
    push(const T &value)
    {
        const std::size_t tail =
            tail_.load(std::memory_order_relaxed);
        const std::size_t next = (tail + 1) & mask_;
        if (next == headCache_) {
            headCache_ = head_.load(std::memory_order_acquire);
            if (next == headCache_)
                return false;
        }
        slots_[tail] = value;
        tail_.store(next, std::memory_order_release);
        return true;
    }

    /** Consumer only: dequeue into @p out; false when empty. */
    bool
    pop(T &out)
    {
        return consume(1, [&out](T &v) { out = v; }) == 1;
    }

    /**
     * Consumer only: hand up to @p max visible items to @p fn (called
     * as fn(T &), oldest first), then release all their slots with
     * one store.  The producer's index is re-read only when the
     * cached copy shows fewer than @p max items.  @p fn must not
     * touch this ring.  @return the number of items consumed.
     */
    template <typename Fn>
    std::size_t
    consume(std::size_t max, Fn &&fn)
    {
        const std::size_t head =
            head_.load(std::memory_order_relaxed);
        std::size_t avail = (tailCache_ - head) & mask_;
        if (avail < max) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            avail = (tailCache_ - head) & mask_;
        }
        const std::size_t n = std::min(avail, max);
        for (std::size_t i = 0; i < n; ++i)
            fn(slots_[(head + i) & mask_]);
        if (n > 0)
            head_.store((head + n) & mask_, std::memory_order_release);
        return n;
    }

    /** Either side: true when no item is visible (racy by nature —
     *  a snapshot, not a synchronization point). */
    bool
    empty() const
    {
        return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire);
    }

    /** Items currently visible (same racy-snapshot caveat). */
    std::size_t
    size() const
    {
        const std::size_t head =
            head_.load(std::memory_order_acquire);
        const std::size_t tail =
            tail_.load(std::memory_order_acquire);
        return (tail - head) & mask_;
    }

  private:
    std::vector<T> slots_;
    const std::size_t mask_;
    /** Consumer's line: its index and its copy of the producer's. */
    alignas(64) std::atomic<std::size_t> head_{0};
    std::size_t tailCache_ = 0;
    /** Producer's line: its index and its copy of the consumer's. */
    alignas(64) std::atomic<std::size_t> tail_{0};
    std::size_t headCache_ = 0;
};

} // namespace ccp::serve

#endif // CCP_SERVE_SPSC_HH
