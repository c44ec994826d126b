/**
 * @file
 * The Storage backing selector that only the perfbench driver still
 * sets.
 *
 * No cache tier holds Storage floats: the [Plan] controller decides
 * which slot each row uses, the timing models charge Storage by
 * formula (slots x row bytes), and the functional trainers keep every
 * slot-aligned row array in an emb::EmbeddingTable with one row per
 * slot.
 */

#ifndef SP_CACHE_SLOT_ARRAY_H
#define SP_CACHE_SLOT_ARRAY_H

namespace sp::cache
{

/** Unused: ControllerConfig::backing stays only because the perfbench
 *  driver sets it, and goes with ROADMAP item 1. */
struct SlotArray
{
    enum class Backing
    {
        Dense,
        Phantom,
    };
};

} // namespace sp::cache

#endif // SP_CACHE_SLOT_ARRAY_H
