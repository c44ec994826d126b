/**
 * @file
 * The Hold mask: ScratchPipe's sliding-window eviction guard.
 *
 * One bitmask per Storage slot (paper Section IV-D, Algorithm 1).
 * Every [Plan] invocation shifts all masks one position (the window
 * slides) and then marks the slots referenced by the mini-batches
 * inside the window:
 *
 *   - the *current* batch's slots must stay resident until its
 *     [Train] stage retires, `past_window` plans from now;
 *   - the next `future_window` batches' already-cached slots must not
 *     be evicted either, or their write-back would race a future
 *     [Collect] read of the same CPU row (RAW-4).
 *
 * A slot is eligible for eviction iff its mask is zero: no mini-batch
 * inside the current window uses it. Mask width is therefore
 * past_window + 1 + future_window bits (paper: 3 + 1 + 2 = 6).
 *
 * Bit layout: bit 0 is the oldest mark (expires on the next advance).
 * The current batch marks bit `past_window`; a future batch at
 * distance d marks bit `past_window + d`.
 */

#ifndef SP_CORE_HOLD_MASK_H
#define SP_CORE_HOLD_MASK_H

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace sp::core
{

/** Per-slot sliding-window hold bits. */
class HoldMask
{
  public:
    /**
     * @param num_slots Slots in the Storage array.
     * @param past_window Plans the mark must survive (paper: 3, the
     *        [Plan]->[Train] distance).
     * @param future_window Upcoming batches marked ahead (paper: 2,
     *        the [Insert]->[Collect] distance).
     */
    HoldMask(uint32_t num_slots, uint32_t past_window,
             uint32_t future_window);

    uint32_t numSlots() const { return num_slots_; }
    uint32_t pastWindow() const { return past_window_; }
    uint32_t futureWindow() const { return future_window_; }
    /** Window width in bits, summed in 64 bits so huge windows cannot
     *  wrap past the 16-bit storage check. */
    uint64_t widthBits() const
    {
        return uint64_t{past_window_} + 1 + future_window_;
    }

    /** Slide the window one plan forward (shift every mask). */
    void advance();

    /** Mark `slot` as used by the current batch. */
    void markCurrent(uint32_t slot);

    /**
     * Mark `slot` as used by the batch `distance` plans in the future
     * (1 <= distance <= future_window).
     */
    void markFuture(uint32_t slot, uint32_t distance);

    /**
     * markCurrent/markFuture, safe under the sharded mark passes:
     * several shards of one pass may mark concurrently (two ranges
     * can contain duplicates of one ID, and neighbouring slots share
     * cache lines), so the bit lands via an atomic OR. The OR is
     * commutative and idempotent, which is what keeps sharded marking
     * bit-identical to the serial pass. No advance()/isHeld() may run
     * concurrently -- the pass is bracketed by plan()'s sequential
     * phases.
     */
    void markCurrentShared(uint32_t slot);
    void markFutureShared(uint32_t slot, uint32_t distance);

    /** True iff any batch in the window holds `slot`. */
    bool isHeld(uint32_t slot) const { return masks_[slot] != 0; }

    /** Raw mask bits of `slot` (tests/diagnostics). */
    uint16_t bits(uint32_t slot) const { return masks_[slot]; }

    /** Number of currently held slots (O(slots)). */
    uint32_t heldCount() const;

    /** Approximate heap bytes (overhead accounting, §VI-D). */
    size_t memoryBytes() const
    {
        return masks_.capacity() * sizeof(uint16_t);
    }

  private:
    uint32_t num_slots_;
    uint32_t past_window_;
    uint32_t future_window_;
    std::vector<uint16_t> masks_;
};

} // namespace sp::core

#endif // SP_CORE_HOLD_MASK_H
