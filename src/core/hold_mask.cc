#include "core/hold_mask.h"

#include <algorithm>

#include "common/logging.h"

namespace sp::core
{

HoldMask::HoldMask(uint32_t num_slots, uint32_t past_window,
                   uint32_t future_window)
    : num_slots_(num_slots), past_window_(past_window),
      future_window_(future_window)
{
    fatalIf(num_slots == 0, "HoldMask needs at least one slot");
    fatalIf(widthBits() > 16,
            "hold-mask window of ", widthBits(),
            " bits exceeds the 16-bit mask storage");
    masks_.assign(num_slots_, 0);
}

void
HoldMask::advance()
{
    for (auto &mask : masks_)
        mask = static_cast<uint16_t>(mask >> 1);
}

uint32_t
HoldMask::heldCount() const
{
    return static_cast<uint32_t>(
        std::count_if(masks_.begin(), masks_.end(),
                      [](uint16_t m) { return m != 0; }));
}

} // namespace sp::core
