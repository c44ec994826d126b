/** @file ScratchPipeController unit and property tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cache/hit_map.h"
#include "common/logging.h"
#include "core/controller.h"
#include "core/hold_mask.h"
#include "tensor/rng.h"

namespace sp::core
{
namespace
{

constexpr std::span<const std::span<const uint64_t>> kNoFutures;

ControllerConfig
baseConfig(uint32_t slots, uint32_t past = 3, uint32_t future = 2)
{
    ControllerConfig config;
    config.num_slots = slots;
    config.dim = 4;
    config.past_window = past;
    config.future_window = future;
    return config;
}

TEST(Controller, FirstBatchAllMisses)
{
    ScratchPipeController controller(baseConfig(64));
    const std::vector<uint64_t> ids = {5, 9, 13};
    const auto plan = controller.plan(ids, kNoFutures);
    EXPECT_EQ(plan.misses, 3u);
    EXPECT_EQ(plan.hits, 0u);
    EXPECT_EQ(plan.fills.size(), 3u);
    EXPECT_TRUE(plan.evictions.empty());
    EXPECT_NEAR(plan.hitRate(), 0.0, 1e-12);
}

TEST(Controller, FillsGetDistinctSlots)
{
    ScratchPipeController controller(baseConfig(64));
    const std::vector<uint64_t> ids = {1, 2, 3, 4, 5, 6, 7, 8};
    const auto plan = controller.plan(ids, kNoFutures);
    std::set<uint32_t> slots;
    for (const auto &fill : plan.fills)
        slots.insert(fill.slot);
    EXPECT_EQ(slots.size(), plan.fills.size());
}

TEST(Controller, DuplicateIdWithinBatchCountsOneMiss)
{
    ScratchPipeController controller(baseConfig(64));
    const std::vector<uint64_t> ids = {7, 7, 7};
    const auto plan = controller.plan(ids, kNoFutures);
    EXPECT_EQ(plan.misses, 1u);
    EXPECT_EQ(plan.hits, 2u);
    EXPECT_EQ(plan.fills.size(), 1u);
}

TEST(Controller, AlwaysHitAfterPlan)
{
    // The defining invariant: once planned, every ID of the batch is
    // resident when its [Train] stage runs.
    ScratchPipeController controller(baseConfig(256, 3, 2));
    tensor::Rng rng(1);
    for (int batch = 0; batch < 50; ++batch) {
        std::vector<uint64_t> ids(16);
        for (auto &id : ids)
            id = static_cast<uint32_t>(rng.uniformInt(1000));
        controller.plan(ids, kNoFutures);
        for (uint64_t id : ids) {
            EXPECT_TRUE(controller.isResident(id));
            EXPECT_LT(controller.slotOf(id), 256u);
        }
    }
}

TEST(Controller, RepeatBatchHitsEverything)
{
    ScratchPipeController controller(baseConfig(64));
    const std::vector<uint64_t> ids = {10, 20, 30};
    controller.plan(ids, kNoFutures);
    const auto plan = controller.plan(ids, kNoFutures);
    EXPECT_EQ(plan.hits, 3u);
    EXPECT_EQ(plan.misses, 0u);
}

TEST(Controller, EvictionsAreWriteBacksOfResidentRows)
{
    ScratchPipeController controller(baseConfig(8, 1, 0));
    // Fill all 8 slots over two batches, then force turnover.
    controller.plan(std::vector<uint64_t>{0, 1, 2, 3}, kNoFutures);
    controller.plan(std::vector<uint64_t>{4, 5, 6, 7}, kNoFutures);
    const auto plan =
        controller.plan(std::vector<uint64_t>{100, 101}, kNoFutures);
    EXPECT_EQ(plan.fills.size(), 2u);
    EXPECT_EQ(plan.evictions.size(), 2u);
    for (const auto &evict : plan.evictions) {
        EXPECT_LT(evict.id, 8u); // one of the original rows
        EXPECT_FALSE(controller.isResident(evict.id));
    }
}

TEST(Controller, EvictedSlotReusedByFill)
{
    ScratchPipeController controller(baseConfig(4, 0, 0));
    controller.plan(std::vector<uint64_t>{0, 1, 2, 3}, kNoFutures);
    const auto plan = controller.plan(std::vector<uint64_t>{9}, kNoFutures);
    ASSERT_EQ(plan.fills.size(), 1u);
    ASSERT_EQ(plan.evictions.size(), 1u);
    EXPECT_EQ(plan.fills[0].slot, plan.evictions[0].slot);
}

TEST(Controller, CapacityExhaustionIsFatal)
{
    // 4 slots, but a single batch pins 5 distinct IDs.
    ScratchPipeController controller(baseConfig(4, 3, 2));
    const std::vector<uint64_t> ids = {1, 2, 3, 4, 5};
    EXPECT_THROW(controller.plan(ids, kNoFutures), FatalError);
}

TEST(Controller, WindowPinsSpanMultipleBatches)
{
    // past_window = 2: three consecutive batches of 2 IDs pin 6 slots;
    // a 6-slot cache survives, a 5-slot cache must fatal on the next
    // distinct batch.
    auto run = [](uint32_t slots) {
        ScratchPipeController controller(baseConfig(slots, 2, 0));
        controller.plan(std::vector<uint64_t>{0, 1}, kNoFutures);
        controller.plan(std::vector<uint64_t>{2, 3}, kNoFutures);
        controller.plan(std::vector<uint64_t>{4, 5}, kNoFutures);
        controller.plan(std::vector<uint64_t>{6, 7}, kNoFutures);
    };
    EXPECT_THROW(run(5), FatalError);
    EXPECT_NO_THROW(run(8));
}

TEST(Controller, WorstCaseSlotsFormula)
{
    // (past + 1 + future) * ids per batch.
    EXPECT_EQ(ScratchPipeController::worstCaseSlots(3, 2, 40960),
              6u * 40960);
    EXPECT_EQ(ScratchPipeController::worstCaseSlots(0, 0, 128), 128u);
}

TEST(Controller, WorstCaseSlotsRejectCountsPastTheSlotSpace)
{
    // 6 x 2^30 used to wrap to 2^31. 2^32 - 1 is the Hit-Map's miss
    // sentinel, so 2^32 - 2 is the largest count that fits.
    for (const auto &[past, future, ids] :
         {std::tuple<uint32_t, uint32_t, size_t>{3, 2, size_t{1} << 30},
          {0, 0, 0xffffffffull},
          {1, 0, size_t{1} << 31},
          {0xffffffffu, 0xffffffffu, 0xffffffffull}}) {
        try {
            ScratchPipeController::worstCaseSlots(past, future, ids);
            ADD_FAILURE() << past << "," << future << "," << ids
                          << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "exceeds the 32-bit slot space"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(ScratchPipeController::worstCaseSlots(0, 0, 0xfffffffeull),
              0xfffffffeu);
    EXPECT_EQ(ScratchPipeController::worstCaseSlots(1, 0, 0x7fffffffull),
              0xfffffffeu);
}

TEST(Controller, WorstCaseSlotsSufficeForAdversarialTrace)
{
    // Every batch entirely distinct: the §VI-D bound must be exactly
    // enough to never fatal.
    const size_t ids_per_batch = 4;
    const uint32_t slots =
        ScratchPipeController::worstCaseSlots(3, 2, ids_per_batch);
    ScratchPipeController controller(baseConfig(slots, 3, 2));
    uint32_t next_id = 0;
    std::vector<std::vector<uint64_t>> batches;
    for (int b = 0; b < 40; ++b) {
        std::vector<uint64_t> ids(ids_per_batch);
        for (auto &id : ids)
            id = next_id++;
        batches.push_back(std::move(ids));
    }
    for (size_t b = 0; b < batches.size(); ++b) {
        std::vector<std::span<const uint64_t>> futures;
        for (size_t d = 1; d <= 2 && b + d < batches.size(); ++d)
            futures.emplace_back(batches[b + d]);
        EXPECT_NO_THROW(controller.plan(batches[b], futures));
    }
}

TEST(Controller, FutureIdsNeverEvicted)
{
    // Randomized property: an eviction may never target an ID used by
    // the current batch, the past `past_window` batches, or the
    // supplied future window -- the paper's RAW-freedom superset.
    const uint32_t past = 3, future = 2;
    const size_t ids_per_batch = 8;
    const uint32_t slots = ScratchPipeController::worstCaseSlots(
        past, future, ids_per_batch);
    ScratchPipeController controller(baseConfig(slots, past, future));

    tensor::Rng rng(99);
    std::vector<std::vector<uint64_t>> batches;
    for (int b = 0; b < 120; ++b) {
        std::vector<uint64_t> ids(ids_per_batch);
        for (auto &id : ids)
            id = static_cast<uint32_t>(rng.uniformInt(200)); // hot pool
        batches.push_back(std::move(ids));
    }

    for (size_t b = 0; b < batches.size(); ++b) {
        std::vector<std::span<const uint64_t>> futures;
        for (size_t d = 1; d <= future && b + d < batches.size(); ++d)
            futures.emplace_back(batches[b + d]);
        const auto plan = controller.plan(batches[b], futures);

        std::set<uint64_t> protected_ids;
        const size_t lo = b >= past ? b - past : 0;
        const size_t hi = std::min(batches.size() - 1, b + future);
        for (size_t w = lo; w <= hi; ++w)
            protected_ids.insert(batches[w].begin(), batches[w].end());

        for (const auto &evict : plan.evictions) {
            EXPECT_EQ(protected_ids.count(evict.id), 0u)
                << "batch " << b << " evicted in-window ID " << evict.id;
        }
    }
}

TEST(Controller, HitRateTracksLocality)
{
    auto run_trace = [](uint64_t id_space) {
        ScratchPipeController controller(baseConfig(128, 3, 0));
        tensor::Rng rng(5);
        uint64_t hits = 0, total = 0;
        for (int b = 0; b < 100; ++b) {
            std::vector<uint64_t> ids(8);
            for (auto &id : ids)
                id = static_cast<uint32_t>(rng.uniformInt(id_space));
            const auto plan = controller.plan(ids, kNoFutures);
            hits += plan.hits;
            total += plan.hits + plan.misses;
        }
        return static_cast<double>(hits) / static_cast<double>(total);
    };
    // A working set that fits the cache hits nearly always; a huge
    // uniform space almost never.
    EXPECT_GT(run_trace(64), 0.9);
    EXPECT_LT(run_trace(100000), 0.2);
}

TEST(Controller, AccessorResolvesResidentRows)
{
    auto config = baseConfig(16);
    config.backing = cache::SlotArray::Backing::Dense;
    ScratchPipeController controller(config);
    controller.plan(std::vector<uint64_t>{3}, kNoFutures);

    auto accessor = controller.accessor();
    EXPECT_EQ(accessor.dim(), 4u);
    accessor.row(3)[0] = 42.0f;
    EXPECT_EQ(controller.storage().slot(controller.slotOf(3))[0], 42.0f);
    EXPECT_THROW(accessor.row(999), PanicError);
}

TEST(Controller, FlushWritesResidentRowsBack)
{
    auto config = baseConfig(16);
    config.backing = cache::SlotArray::Backing::Dense;
    ScratchPipeController controller(config);
    controller.plan(std::vector<uint64_t>{2, 5}, kNoFutures);
    controller.accessor().row(2)[1] = 7.0f;
    controller.accessor().row(5)[3] = -3.0f;

    emb::EmbeddingTable table(10, 4);
    controller.flushTo(table);
    EXPECT_EQ(table.row(2)[1], 7.0f);
    EXPECT_EQ(table.row(5)[3], -3.0f);
    EXPECT_EQ(table.row(0)[0], 0.0f);
}

TEST(Controller, KeyOfSlotTracksAssignment)
{
    ScratchPipeController controller(baseConfig(8, 0, 0));
    const auto plan =
        controller.plan(std::vector<uint64_t>{11}, kNoFutures);
    ASSERT_EQ(plan.fills.size(), 1u);
    EXPECT_EQ(controller.keyOfSlot(plan.fills[0].slot), 11u);
}

TEST(Controller, MetadataBytesAccounted)
{
    ScratchPipeController controller(baseConfig(1024));
    // Hit-Map + hold masks + slot keys: several KB at least.
    EXPECT_GT(controller.metadataBytes(), 1024u * 6);
}

TEST(Controller, MetadataBytesChargeTheModeledHitMap)
{
    // The host looks rows up in a RowIndex, but the reported bytes
    // stay the GPU Hit-Map's: a HitMap holding num_slots entries, plus
    // the hold masks and the slot keys. 1, 8 and 9 straddle the
    // 16-bucket floor; 245760 is the perfbench geometry's slot count.
    for (const uint32_t slots : {1u, 8u, 9u, 100000u, 245760u}) {
        auto config = baseConfig(slots);
        config.backing = cache::SlotArray::Backing::Phantom;
        const ScratchPipeController controller(config);
        cache::HitMap map(slots);
        for (uint32_t slot = 0; slot < slots; ++slot)
            map.insert(slot, slot);
        const HoldMask holds(slots, 3, 2);
        EXPECT_EQ(controller.metadataBytes(),
                  map.memoryBytes() + holds.memoryBytes() +
                      size_t{slots} * sizeof(uint64_t))
            << slots << " slots";
    }
}

TEST(Controller, IdsAcrossThe32BitBoundaryDoNotAlias)
{
    // Rows of a table above 2^32 rows: an ID and its low 32 bits are
    // different rows, so each gets its own fill and none hits
    // another's slot.
    ScratchPipeController controller(baseConfig(64));
    const uint64_t wide = uint64_t{1} << 32;
    const std::vector<uint64_t> ids = {1, wide + 1, 0xffffffffull, wide, 2};
    const PlanResult &plan = controller.plan(ids, kNoFutures);
    EXPECT_EQ(plan.hits, 0u);
    EXPECT_EQ(plan.misses, ids.size());
    std::set<uint32_t> slots;
    for (const FillOp &fill : plan.fills)
        slots.insert(fill.slot);
    EXPECT_EQ(slots.size(), ids.size());
    for (const uint64_t id : ids)
        EXPECT_EQ(controller.keyOfSlot(controller.slotOf(id)), id);

    // Of 2^32 + 2, 1 and 2^32 - 2, only 1 is resident.
    const PlanResult &again = controller.plan(
        std::vector<uint64_t>{wide + 2, 1, wide - 2}, kNoFutures);
    EXPECT_EQ(again.hits, 1u);
    EXPECT_EQ(again.misses, 2u);
}

TEST(Controller, StatsAccumulate)
{
    ScratchPipeController controller(baseConfig(64));
    controller.plan(std::vector<uint64_t>{1, 2}, kNoFutures);
    controller.plan(std::vector<uint64_t>{1, 3}, kNoFutures);
    const auto &stats = controller.stats();
    EXPECT_EQ(stats.plans, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.fills, 3u);
}

TEST(Controller, InvalidConfigFatal)
{
    EXPECT_THROW(ScratchPipeController(baseConfig(0)), FatalError);
    auto config = baseConfig(4);
    config.dim = 0;
    EXPECT_THROW(ScratchPipeController{config}, FatalError);
}

class ControllerPolicies
    : public ::testing::TestWithParam<cache::PolicyKind>
{
};

TEST_P(ControllerPolicies, AlwaysHitHoldsUnderEveryPolicy)
{
    auto config = baseConfig(
        ScratchPipeController::worstCaseSlots(3, 2, 8), 3, 2);
    config.policy = GetParam();
    ScratchPipeController controller(config);

    tensor::Rng rng(17);
    std::vector<std::vector<uint64_t>> batches;
    for (int b = 0; b < 60; ++b) {
        std::vector<uint64_t> ids(8);
        for (auto &id : ids)
            id = static_cast<uint32_t>(rng.uniformInt(500));
        batches.push_back(std::move(ids));
    }
    for (size_t b = 0; b < batches.size(); ++b) {
        std::vector<std::span<const uint64_t>> futures;
        for (size_t d = 1; d <= 2 && b + d < batches.size(); ++d)
            futures.emplace_back(batches[b + d]);
        controller.plan(batches[b], futures);
        for (uint64_t id : batches[b])
            ASSERT_TRUE(controller.isResident(id));
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, ControllerPolicies,
                         ::testing::Values(cache::PolicyKind::Lru,
                                           cache::PolicyKind::Lfu,
                                           cache::PolicyKind::Random,
                                           cache::PolicyKind::Fifo),
                         [](const auto &info) {
                             return cache::policyName(info.param);
                         });

} // namespace
} // namespace sp::core
