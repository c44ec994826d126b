#include "cache/row_index.h"

#include <algorithm>
#include <bit>

namespace sp::cache
{

void
RowIndex::addPage(uint64_t page)
{
    if (page >= pages_.size()) {
        // splint:allow(hot-path-transitive-alloc): the directory grows only when an insert passes its highest page
        pages_.resize(page + 1);
    }
    // splint:allow(hot-path-transitive-alloc): one page per 2^16 rows on its first insert, never again for the cache's life
    pages_[page] = std::make_unique<uint32_t[]>(kPageRows);
    std::fill_n(pages_[page].get(), kPageRows, kNotFound);
}

void
RowIndex::forEach(const std::function<void(uint64_t, uint32_t)> &fn) const
{
    for (uint64_t page = 0; page < pages_.size(); ++page) {
        if (!pages_[page])
            continue;
        for (uint64_t row = 0; row < kPageRows; ++row) {
            const uint32_t slot = pages_[page][row];
            if (slot != kNotFound)
                fn((page << kPageBits) | row, slot);
        }
    }
}

size_t
RowIndex::memoryBytes() const
{
    const auto allocated = static_cast<size_t>(std::ranges::count_if(
        pages_, [](const auto &page) { return page != nullptr; }));
    return pages_.capacity() * sizeof(pages_[0]) +
           allocated * kPageRows * sizeof(uint32_t);
}

size_t
modeledHitMapBytes(size_t slots)
{
    const size_t buckets = std::bit_ceil(std::max<size_t>(16, 2 * slots));
    return buckets * (sizeof(uint64_t) + sizeof(uint32_t));
}

} // namespace sp::cache
