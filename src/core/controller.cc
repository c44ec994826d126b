#include "core/controller.h"

#include <algorithm>
#include <variant>

#include "common/logging.h"

namespace sp::core
{

ScratchPipeController::ScratchPipeController(const ControllerConfig &config)
    : config_(config),
      holds_(config.num_slots, config.past_window, config.future_window),
      policy_(cache::makePolicy(config.policy, config.num_slots,
                                config.policy_seed)),
      slot_key_(config.num_slots, kNoKey)
{
    fatalIf(config.num_slots == 0,
            "ScratchPipe controller needs at least one slot");

    if (config.warm_start) {
        fatalIf(config.num_slots > (1ull << 31),
                "warm_start slot count out of row-ID range");
        // Resident set = rows 0..num_slots-1 (the hottest ranks).
        // Touch order makes slot 0 the MRU end, matching where a long
        // LRU run on a rank-ordered Zipf trace converges.
        std::visit(
            [this](auto &policy) {
                for (uint32_t slot = config_.num_slots; slot-- > 0;) {
                    index_.insert(slot, slot);
                    slot_key_[slot] = slot;
                    policy.touch(slot);
                }
            },
            policy_);
    }
}

void
ScratchPipeController::markPass(std::span<const uint64_t> ids,
                                uint32_t future_distance)
{
    for (size_t i = 0; i < ids.size(); ++i) {
        if (i + kPrefetchDistance < ids.size())
            index_.prefetch(ids[i + kPrefetchDistance]);
        const uint32_t slot = index_.find(ids[i]);
        if (slot == cache::RowIndex::kNotFound)
            continue;
        if (future_distance == 0)
            holds_.markCurrent(slot);
        else
            holds_.markFuture(slot, future_distance);
    }
}

const PlanResult &
ScratchPipeController::plan(
    std::span<const uint64_t> current_ids,
    std::span<const std::span<const uint64_t>> future_ids)
{
    // Reset the reusable schedule; clear() keeps vector capacity, so
    // a warmed-up controller plans without touching the heap.
    plan_.hits = 0;
    plan_.misses = 0;
    plan_.fills.clear();
    plan_.evictions.clear();

    // Step B of Algorithm 1: slide the window.
    holds_.advance();

    // Build the protected superset *before* any victim is chosen
    // (Section IV-C: the window's IDs are "ruled out from cache
    // eviction candidates"). Algorithm 1's listing interleaves hit
    // marking with victim selection; marking the current batch's
    // resident rows and the future window first is the order that
    // actually removes RAW-4 -- otherwise an early miss could evict a
    // row a later lookup of this very window still needs.
    //
    // With future_window >= 2 the current pre-mark pass is redundant:
    // every resident row of this batch was already future-marked by
    // the previous two plans (each scanned this batch at distance 1
    // and 2 *before* selecting its own victims), or current-marked by
    // the plan that inserted it within the past window. Narrower
    // windows (the straw-man's 0) lack that cover, so the pass stays.
    // Mark bits OR in, so the masks are the same in any pass order.
    const uint32_t window =
        std::min<uint32_t>(config_.future_window,
                           static_cast<uint32_t>(future_ids.size()));
    for (uint32_t d = 1; d <= window; ++d)
        markPass(future_ids[d - 1], d);
    if (config_.future_window < 2)
        markPass(current_ids, 0);

    // Step C: classify the current batch and assign victims to misses,
    // in a loop compiled for the policy's concrete type. Each lookup
    // sees the live index, so a duplicate of an ID missed earlier in
    // this batch hits the slot that miss filled.
    std::visit([this, current_ids](auto &policy) {
        // splint:hot-path-begin(plan-classify)
        for (size_t i = 0; i < current_ids.size(); ++i) {
            if (i + kPrefetchDistance < current_ids.size())
                index_.prefetch(current_ids[i + kPrefetchDistance]);
            const uint64_t id = current_ids[i];
            const uint32_t slot = index_.find(id);
            if (slot != cache::RowIndex::kNotFound) {
                ++plan_.hits;
                policy.touch(slot);
                holds_.markCurrent(slot);
                continue;
            }

            ++plan_.misses;
            const uint32_t victim = policy.chooseVictim(
                [this](uint32_t s) { return !holds_.isHeld(s); });
            fatalIf(victim == cache::kNoVictim,
                    "scratchpad under-provisioned: all ", config_.num_slots,
                    " slots are held by in-flight mini-batches; provision "
                    "at least the worst-case window working set (paper "
                    "§VI-D)");

            const uint64_t old_key = slot_key_[victim];
            if (old_key != kNoKey) {
                index_.erase(old_key);
                // plan_ is per-controller scratch; clear() above keeps
                // the vector's allocation, so steady state never grows.
                // splint:allow(hot-path-alloc): capacity retained across plans
                plan_.evictions.push_back(EvictOp{old_key, victim});
            }
            index_.insert(id, victim);
            slot_key_[victim] = id;
            // splint:allow(hot-path-alloc): capacity retained across plans
            plan_.fills.push_back(FillOp{id, victim});
            policy.touch(victim);
            holds_.markCurrent(victim);
        }
        // splint:hot-path-end
    }, policy_);

    ++stats_.plans;
    stats_.hits += plan_.hits;
    stats_.misses += plan_.misses;
    stats_.fills += plan_.fills.size();
    stats_.evictions += plan_.evictions.size();
#ifdef SP_CHECK_INVARIANTS
    // Always-hit: [Train] finds every ID of this batch in the slot
    // keyed by it, and the index holds exactly the occupied slots.
    for (const uint64_t id : current_ids) {
        const uint32_t slot = index_.find(id);
        SP_ASSERT(slot < config_.num_slots && slot_key_[slot] == id, "id ",
                  id, " of the planned batch does not resolve to a slot "
                  "keyed by it");
    }
    const auto occupied = static_cast<size_t>(std::ranges::count_if(
        slot_key_, [](uint64_t key) { return key != kNoKey; }));
    SP_ASSERT(index_.size() == occupied, "row index holds ", index_.size(),
              " live ids but ", occupied, " slots are occupied");

    // Conservation, which the timing models charge from: every ID is
    // a hit or a miss, every miss is a fill, and the index gains a row
    // per fill and loses one per eviction (write-back) over its life.
    SP_ASSERT(plan_.hits + plan_.misses == current_ids.size(), "plan ",
              stats_.plans, " counts ", plan_.hits, " hits + ",
              plan_.misses, " misses for ", current_ids.size(), " ids");
    SP_ASSERT(plan_.misses == plan_.fills.size(), "plan ", stats_.plans,
              " counts ", plan_.misses, " misses but schedules ",
              plan_.fills.size(), " fills");
    const uint64_t resident = (config_.warm_start ? config_.num_slots : 0) +
                              stats_.fills - stats_.evictions;
    SP_ASSERT(index_.size() == resident, "row index holds ", index_.size(),
              " ids but ", stats_.fills, " fills and ", stats_.evictions,
              " evictions leave ", resident);
#endif
    return plan_;
}

bool
ScratchPipeController::isResident(uint64_t id) const
{
    return index_.contains(id);
}

uint32_t
ScratchPipeController::slotOf(uint64_t id) const
{
    const uint32_t slot = index_.find(id);
    panicIf(slot == cache::RowIndex::kNotFound,
            "ID ", id, " is not resident in the scratchpad");
    return slot;
}

ScratchPipeController::Accessor::Accessor(
    const ScratchPipeController &controller, emb::EmbeddingTable &slots)
    : controller_(controller), slots_(slots)
{
    panicIf(slots.rows() != controller.config().num_slots,
            "accessor over ", slots.rows(), " slots for a ",
            controller.config().num_slots, "-slot scratchpad");
}

float *
ScratchPipeController::Accessor::row(uint64_t id)
{
    return slots_.row(controller_.slotOf(id));
}

const float *
ScratchPipeController::Accessor::row(uint64_t id) const
{
    return slots_.row(controller_.slotOf(id));
}

void
ScratchPipeController::forEachResident(
    const std::function<void(uint64_t, uint32_t)> &fn) const
{
    index_.forEach(fn);
}

uint32_t
ScratchPipeController::worstCaseSlots(uint32_t past_window,
                                      uint32_t future_window,
                                      size_t ids_per_batch)
{
    // Every batch in the window (past + current + future) may pin a
    // fully distinct set of IDs.
    const uint64_t batches = past_window + 1ull + future_window;
    // Slot indices are 32-bit, and 2^32 - 1 is the row index's
    // not-found sentinel. Dividing instead of multiplying keeps the
    // test exact.
    fatalIf(ids_per_batch > 0xfffffffeull / batches,
            "worst-case window working set of ", batches, " x ",
            ids_per_batch, " slots exceeds the 32-bit slot space");
    return static_cast<uint32_t>(batches * ids_per_batch);
}

size_t
ScratchPipeController::metadataBytes() const
{
    return cache::modeledHitMapBytes(config_.num_slots) +
           holds_.memoryBytes() + slot_key_.capacity() * sizeof(uint64_t);
}

} // namespace sp::core
