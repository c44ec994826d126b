#include "cache/static_cache.h"

#include <cstring>

#include "common/logging.h"

namespace sp::cache
{

StaticCache::StaticCache(std::span<const uint64_t> cached_rows, size_t dim)
    : cached_rows_(cached_rows.begin(), cached_rows.end()),
      map_(cached_rows.size()),
      storage_(cached_rows.empty()
                   ? 1
                   : static_cast<uint32_t>(cached_rows.size()),
               dim)
{
    fatalIf(cached_rows.empty(),
            "a static cache needs at least one cached row");
    for (uint32_t slot = 0; slot < cached_rows_.size(); ++slot)
        map_.insert(cached_rows_[slot], slot);
}

QuerySplit
StaticCache::query(std::span<const uint64_t> ids) const
{
    QuerySplit split;
    for (const uint64_t id : ids) {
        if (map_.contains(id))
            ++split.hits;
        else
            ++split.misses;
    }
    return split;
}

void
StaticCache::fillFrom(const emb::EmbeddingTable &table)
{
    panicIf(table.dim() != dim(), "dimension mismatch filling cache");
    for (uint32_t slot = 0; slot < cached_rows_.size(); ++slot) {
        std::memcpy(storage_.slot(slot), table.row(cached_rows_[slot]),
                    storage_.rowBytes());
    }
}

void
StaticCache::flushTo(emb::EmbeddingTable &table) const
{
    panicIf(table.dim() != dim(), "dimension mismatch flushing cache");
    for (uint32_t slot = 0; slot < cached_rows_.size(); ++slot) {
        std::memcpy(table.row(cached_rows_[slot]), storage_.slot(slot),
                    storage_.rowBytes());
    }
}

float *
StaticCache::Accessor::row(uint64_t id)
{
    const uint32_t slot = cache_.map_.find(id);
    panicIf(slot == HitMap::kNotFound,
            "static cache accessor asked for non-cached row ", id);
    return cache_.storage_.slot(slot);
}

const float *
StaticCache::Accessor::row(uint64_t id) const
{
    const uint32_t slot = cache_.map_.find(id);
    panicIf(slot == HitMap::kNotFound,
            "static cache accessor asked for non-cached row ", id);
    return cache_.storage_.slot(slot);
}

} // namespace sp::cache
