#include "core/controller.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace sp::core
{

namespace
{

/** Below this many IDs per shard, splitting a probe pass costs more
 *  in task hand-off than the DRAM overlap buys. */
constexpr size_t kMinShardIds = 64;

} // namespace

ScratchPipeController::ScratchPipeController(const ControllerConfig &config)
    : config_(config), map_(config.num_slots),
      holds_(config.num_slots, config.past_window, config.future_window),
      policy_(cache::makePolicy(config.policy, config.policy_seed)),
      storage_(config.num_slots, config.dim, config.backing),
      slot_key_(config.num_slots, kNoKey)
{
    fatalIf(config.num_slots == 0,
            "ScratchPipe controller needs at least one slot");
    fatalIf(config.dim == 0, "embedding dimension must be positive");
    map_.setProbeMode(config.probe);
    policy_->reset(config.num_slots);

    if (config.warm_start) {
        fatalIf(storage_.isDense(),
                "warm_start requires phantom Storage (no values exist "
                "for the pre-resident rows)");
        fatalIf(config.num_slots > (1ull << 31),
                "warm_start slot count out of row-ID range");
        // Resident set = rows 0..num_slots-1 (the hottest ranks).
        // Touch order makes slot 0 the MRU end, matching where a long
        // LRU run on a rank-ordered Zipf trace converges.
        for (uint32_t slot = config.num_slots; slot-- > 0;) {
            map_.insert(slot, slot);
            slot_key_[slot] = slot;
            policy_->touch(slot);
        }
    }
}

uint32_t
ScratchPipeController::shardsFor(size_t n) const
{
    if (config_.plan_shards <= 1 || n < 2 * kMinShardIds)
        return 1;
    return static_cast<uint32_t>(std::min<size_t>(
        config_.plan_shards, n / kMinShardIds));
}

void
ScratchPipeController::markPass(std::span<const uint64_t> ids,
                                uint32_t future_distance)
{
    probe_.resize(ids.size());
    const uint32_t shards = shardsFor(ids.size());
    if (shards <= 1) {
        map_.findMany(ids, probe_);
        for (const uint32_t slot : probe_) {
            if (slot == cache::HitMap::kNotFound)
                continue;
            if (future_distance == 0)
                holds_.markCurrent(slot);
            else
                holds_.markFuture(slot, future_distance);
        }
        return;
    }

    // Contiguous ID ranges, one per shard: shard s probes its range
    // into the matching range of probe_ (slot i from call i, exactly
    // the single-findMany layout) and applies its own marks through
    // the atomic markers. The Hit-Map is read-only for the whole
    // pass, and mark bits OR in commutatively, so the merged result
    // is bit-identical to the serial pass at any width.
    const size_t chunk = (ids.size() + shards - 1) / shards;
    common::ThreadPool::global().parallelFor(
        shards,
        [this, ids, future_distance, chunk](size_t s) {
            const size_t begin = s * chunk;
            const size_t end = std::min(ids.size(), begin + chunk);
            if (begin >= end)
                return;
            const auto sub_ids = ids.subspan(begin, end - begin);
            const auto sub_out =
                std::span<uint32_t>(probe_).subspan(begin, end - begin);
            map_.findMany(sub_ids, sub_out);
            for (const uint32_t slot : sub_out) {
                if (slot == cache::HitMap::kNotFound)
                    continue;
                if (future_distance == 0)
                    holds_.markCurrentShared(slot);
                else
                    holds_.markFutureShared(slot, future_distance);
            }
        },
        shards - 1);
}

void
ScratchPipeController::probePass(std::span<const uint64_t> ids)
{
    // probe_ retains capacity across batches, so steady state does
    // not allocate; the allow also severs the resolver's false edge
    // to tensor::Matrix::resize.
    // splint:allow(hot-path-transitive-alloc): capacity retained, steady state allocation-free
    probe_.resize(ids.size());
    const uint32_t shards = shardsFor(ids.size());
    if (shards <= 1) {
        map_.findMany(ids, probe_);
        return;
    }
    const size_t chunk = (ids.size() + shards - 1) / shards;
    common::ThreadPool::global().parallelFor(
        shards,
        [this, ids, chunk](size_t s) {
            const size_t begin = s * chunk;
            const size_t end = std::min(ids.size(), begin + chunk);
            if (begin >= end)
                return;
            map_.findMany(ids.subspan(begin, end - begin),
                          std::span<uint32_t>(probe_).subspan(
                              begin, end - begin));
        },
        shards - 1);
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
    // It runs after the future passes: mark bits OR in, so the masks
    // are the same in any order, and nothing mutates the Hit-Map
    // before classification, so its probe of the current batch is the
    // pre-probe Step C needs.
    // Probe latency against the multi-MB Hit-Map dominates planning
    // at paper scale; every scan goes through the software-pipelined
    // batched probe, split into plan_shards ID ranges over the worker
    // pool when the controller is configured to shard.
    const bool mark_current = config_.future_window < 2;
    const uint32_t window =
        std::min<uint32_t>(config_.future_window,
                           static_cast<uint32_t>(future_ids.size()));
    for (uint32_t d = 1; d <= window; ++d)
        markPass(future_ids[d - 1], d);
    if (mark_current)
        markPass(current_ids, 0);

    // splint:hot-path-begin(plan-classify)
    // Step C: classify the current batch and assign victims to misses.
    // The batched pre-probe is taken before any insert/erase of this
    // pass, so each result needs an O(1) revalidation against the live
    // state: a pre-probe miss may have been filled by an earlier
    // duplicate of the same ID, and a pre-probe hit may have been
    // evicted by an earlier miss (possible only while hold marks are
    // still warming up, e.g. the first plans after warm_start). Both
    // cases fall back to a live probe, so the outcome is exactly what
    // the old one-find-per-ID loop produced. The current mark pass,
    // when it ran, already left that pre-probe in probe_.
    if (!mark_current)
        probePass(current_ids);
    for (size_t i = 0; i < current_ids.size(); ++i) {
        const uint64_t id = current_ids[i];
        uint32_t slot = probe_[i];
        if (slot == cache::HitMap::kNotFound || slot_key_[slot] != id)
            slot = map_.find(id);
        // The accepted pre-probe result must agree with a live probe:
        // slot_key_ is the controller's inverse index of the Hit-Map,
        // and any divergence means revalidation let a stale result
        // through (the bug class the O(1) check exists to stop).
        SP_ASSERT(slot == map_.find(id),
                  "slot_key_ revalidation diverged from the live "
                  "Hit-Map for id ", id);
        if (slot != cache::HitMap::kNotFound) {
            ++plan_.hits;
            policy_->touch(slot);
            holds_.markCurrent(slot);
            continue;
        }

        ++plan_.misses;
        const uint32_t victim = policy_->chooseVictim(
            [this](uint32_t s) { return !holds_.isHeld(s); });
        fatalIf(victim == cache::ReplacementPolicy::kNoVictim,
                "scratchpad under-provisioned: all ", config_.num_slots,
                " slots are held by in-flight mini-batches; provision at "
                "least the worst-case window working set (paper §VI-D)");

        const uint64_t old_key = slot_key_[victim];
        if (old_key != kNoKey) {
            map_.erase(old_key);
            // plan_ is per-controller scratch; clear() above keeps
            // the vector's allocation, so steady state never grows.
            // splint:allow(hot-path-alloc): capacity retained across plans
            plan_.evictions.push_back(EvictOp{old_key, victim});
        }
        map_.insert(id, victim);
        slot_key_[victim] = id;
        SP_ASSERT(map_.find(id) == victim, "fill of id ", id,
                  " did not land in victim slot ", victim);
        // splint:allow(hot-path-alloc): capacity retained across plans
        plan_.fills.push_back(FillOp{id, victim});
        policy_->touch(victim);
        holds_.markCurrent(victim);
    }
    // splint:hot-path-end

    ++stats_.plans;
    stats_.hits += plan_.hits;
    stats_.misses += plan_.misses;
    stats_.fills += plan_.fills.size();
    stats_.evictions += plan_.evictions.size();
    return plan_;
}

bool
ScratchPipeController::isResident(uint64_t id) const
{
    return map_.contains(id);
}

uint32_t
ScratchPipeController::slotOf(uint64_t id) const
{
    const uint32_t slot = map_.find(id);
    panicIf(slot == cache::HitMap::kNotFound,
            "ID ", id, " is not resident in the scratchpad");
    return slot;
}

float *
ScratchPipeController::Accessor::row(uint64_t id)
{
    return controller_.storage_.slot(controller_.slotOf(id));
}

const float *
ScratchPipeController::Accessor::row(uint64_t id) const
{
    return controller_.storage_.slot(controller_.slotOf(id));
}

void
ScratchPipeController::flushTo(emb::EmbeddingTable &table) const
{
    panicIf(table.dim() != config_.dim,
            "dimension mismatch flushing scratchpad");
    map_.forEach([this, &table](uint64_t key, uint32_t slot) {
        std::memcpy(table.row(key), storage_.slot(slot),
                    storage_.rowBytes());
    });
}

void
ScratchPipeController::forEachResident(
    const std::function<void(uint64_t, uint32_t)> &fn) const
{
    map_.forEach(fn);
}

uint32_t
ScratchPipeController::worstCaseSlots(uint32_t past_window,
                                      uint32_t future_window,
                                      size_t ids_per_batch)
{
    // Every batch in the window (past + current + future) may pin a
    // fully distinct set of IDs.
    const uint64_t batches = past_window + 1ull + future_window;
    return static_cast<uint32_t>(batches * ids_per_batch);
}

size_t
ScratchPipeController::metadataBytes() const
{
    return map_.memoryBytes() + holds_.memoryBytes() +
           slot_key_.capacity() * sizeof(uint64_t);
}

} // namespace sp::core
