/**
 * @file
 * Row ID -> Storage slot index of one table's GPU embedding cache.
 *
 * The paper's Hit-Map (Section IV-D) is a GPU hash table, and the
 * timing model charges it by formula. The host only needs its
 * answers, and row IDs are dense integers below the table's row count
 * (checked when a trace loads), so a direct index gives them without
 * hashing: a directory of fixed-size pages, each holding the slots of
 * kPageRows consecutive row IDs.
 *
 * Memory follows the rows touched. The directory grows to the highest
 * page ever inserted (8 bytes per 2^16 rows, about rows / 8192
 * bytes), and a page is allocated, filled with kNotFound, on its first
 * insert. Lookups never allocate: an ID past the directory or on an
 * unallocated page is simply not found. IDs are full 64-bit values, so
 * tables above 2^32 rows do not alias.
 *
 * The page reads are random over megabytes, so the hot loops call
 * prefetch() a fixed distance ahead of find() to overlap those cache
 * misses. Everything but a page's first allocation is inline.
 */

#ifndef SP_CACHE_ROW_INDEX_H
#define SP_CACHE_ROW_INDEX_H

#include <cstdint>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace sp::cache
{

/** Paged direct map: row ID -> Storage slot. */
class RowIndex
{
  public:
    /** Slot value of an absent row (and so not a storable slot). */
    static constexpr uint32_t kNotFound = 0xffffffffu;
    /** Row IDs per page: 2^16, a 256 KB page of 32-bit slots. */
    static constexpr unsigned kPageBits = 16;
    static constexpr uint64_t kPageRows = uint64_t{1} << kPageBits;

    /** Number of live entries. */
    size_t size() const { return size_; }

    /** Slot for `id`, or kNotFound. Allocates nothing. */
    uint32_t
    find(uint64_t id) const
    {
        const uint64_t page = id >> kPageBits;
        if (page >= pages_.size() || !pages_[page])
            return kNotFound;
        return pages_[page][id & (kPageRows - 1)];
    }

    /** True if `id` is present. */
    bool contains(uint64_t id) const { return find(id) != kNotFound; }

    /**
     * Start loading `id`'s entry into the CPU cache ahead of its find.
     * Allocates nothing; an ID past the directory or on an unallocated
     * page is ignored.
     */
    void
    prefetch(uint64_t id) const
    {
        const uint64_t page = id >> kPageBits;
        if (page < pages_.size() && pages_[page])
            __builtin_prefetch(&pages_[page][id & (kPageRows - 1)]);
    }

    /**
     * Insert id -> slot. The id must not already be present (the
     * caches never double-insert) and `slot` must not be kNotFound;
     * panics otherwise.
     */
    void
    insert(uint64_t id, uint32_t slot)
    {
        panicIf(slot == kNotFound, "RowIndex::insert of the not-found "
                                   "slot for id ", id);
        panicIf(find(id) != kNotFound,
                "RowIndex::insert of already-present id ", id);
        const uint64_t page = id >> kPageBits;
        if (page >= pages_.size() || !pages_[page])
            addPage(page);
        pages_[page][id & (kPageRows - 1)] = slot;
        ++size_;
    }

    /** Remove `id`; panics if absent. */
    void
    erase(uint64_t id)
    {
        panicIf(find(id) == kNotFound, "RowIndex::erase of absent id ", id);
        pages_[id >> kPageBits][id & (kPageRows - 1)] = kNotFound;
        --size_;
    }

    /** Visit every (id, slot) pair in increasing id order. */
    void forEach(const std::function<void(uint64_t, uint32_t)> &fn) const;

    /** Host heap bytes: the directory plus the allocated pages. */
    size_t memoryBytes() const;

  private:
    /** Allocate the absent `page`, filled with kNotFound, growing the
     *  directory to reach it. */
    void addPage(uint64_t page);

    std::vector<std::unique_ptr<uint32_t[]>> pages_;
    size_t size_ = 0;
};

/**
 * Bytes the timing model charges for the paper's GPU Hit-Map over
 * `slots` cached rows: an open-addressing table at most half full,
 * bit_ceil(max(16, 2 * slots)) buckets of a 64-bit row ID and a
 * 32-bit slot. Every cache tier that reports GPU bytes charges this.
 */
size_t modeledHitMapBytes(size_t slots);

} // namespace sp::cache

#endif // SP_CACHE_ROW_INDEX_H
