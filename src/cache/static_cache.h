/**
 * @file
 * Static top-N GPU embedding cache (the Yin et al. baseline).
 *
 * The cache is filled once with the N most frequently accessed rows of
 * a table and never evicts (paper Fig. 4(b)). Queries count a batch's
 * hits (serviced from GPU memory) and misses (serviced from the CPU
 * embedding table); both halves are trained in place, so the cache
 * additionally exposes row access to its storage for the functional
 * engine.
 */

#ifndef SP_CACHE_STATIC_CACHE_H
#define SP_CACHE_STATIC_CACHE_H

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "cache/hit_map.h"
#include "cache/slot_array.h"
#include "emb/embedding_table.h"

namespace sp::cache
{

/** Hit/miss counts of one batch's sparse IDs. */
struct QuerySplit
{
    uint64_t hits = 0;
    uint64_t misses = 0;
};

/** Never-evicting cache of the top-N hottest rows of one table. */
class StaticCache
{
  public:
    /**
     * @param cached_rows Row IDs to cache (e.g. the first k entries of
     *                    AccessStats::rankedRows); slot i holds
     *                    cached_rows[i].
     * @param dim Embedding dimension.
     */
    StaticCache(std::span<const uint64_t> cached_rows, size_t dim);

    size_t dim() const { return storage_.dim(); }

    /** Count a batch's hits and misses. */
    QuerySplit query(std::span<const uint64_t> ids) const;

    /** Slot for `id`, or HitMap::kNotFound. */
    uint32_t slotFor(uint64_t id) const { return map_.find(id); }

    /** Copy the cached rows' current values from a dense table. */
    void fillFrom(const emb::EmbeddingTable &table);

    /** Write every cached row's value back into a dense table. */
    void flushTo(emb::EmbeddingTable &table) const;

    /** Row accessor over cached IDs (panics on non-cached IDs). */
    class Accessor : public emb::RowAccessor
    {
      public:
        explicit Accessor(StaticCache &cache) : cache_(cache) {}
        float *row(uint64_t id) override;
        const float *row(uint64_t id) const override;
        size_t dim() const override { return cache_.dim(); }

      private:
        StaticCache &cache_;
    };

    Accessor accessor() { return Accessor(*this); }

  private:
    std::vector<uint64_t> cached_rows_;
    HitMap map_;
    SlotArray storage_;
};

} // namespace sp::cache

#endif // SP_CACHE_STATIC_CACHE_H
