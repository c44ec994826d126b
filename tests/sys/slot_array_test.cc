/**
 * @file
 * The scratchpad's slot arrays. Every slot-aligned row array -- the
 * Storage values and, under AdaGrad, the accumulators beside them --
 * is an emb::EmbeddingTable with one row per controller slot, reached
 * through ScratchPipeController::Accessor; the timing models charge
 * it by formula (scratchpadStorageBytes()).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
#include "core/controller.h"
#include "emb/embedding_table.h"
#include "sys/scratchpipe_sys.h"

namespace sp::sys
{
namespace
{

using core::ScratchPipeController;

/** A controller of `slots` slots holding `ids`, one per slot. */
ScratchPipeController
plannedController(uint32_t slots, const std::vector<uint64_t> &ids)
{
    core::ControllerConfig config;
    config.num_slots = slots;
    ScratchPipeController controller(config);
    controller.plan(ids, {});
    return controller;
}

TEST(SlotArray, DenseGeometry)
{
    // A 16-slot table of 8-float rows holds what the timing models
    // charge for it, and AdaGrad's accumulators double the charge.
    const emb::EmbeddingTable storage(16, 8);
    EXPECT_EQ(storage.rows(), 16u);
    EXPECT_EQ(storage.dim(), 8u);
    EXPECT_EQ(storage.rowBytes(), 32u);

    ModelConfig model;
    model.embedding_dim = 8;
    EXPECT_EQ(scratchpadStorageBytes(model, 16), 512u);
    model.optimizer = Optimizer::AdaGrad;
    EXPECT_EQ(scratchpadStorageBytes(model, 16), 1024u);
}

TEST(SlotArray, SlotsZeroInitialised)
{
    const auto controller = plannedController(4, {5, 6, 7, 8});
    emb::EmbeddingTable storage(4, 4);
    const ScratchPipeController::Accessor slots(controller, storage);
    for (const uint64_t id : {5u, 6u, 7u, 8u})
        for (size_t d = 0; d < 4; ++d)
            EXPECT_EQ(slots.row(id)[d], 0.0f) << "id " << id;
}

TEST(SlotArray, SlotsWritableAndDisjoint)
{
    const auto controller = plannedController(4, {10, 20, 30, 40});
    emb::EmbeddingTable storage(4, 2);
    ScratchPipeController::Accessor slots(controller, storage);
    slots.row(20)[0] = 1.5f;
    slots.row(30)[1] = -2.5f;
    EXPECT_EQ(storage.row(controller.slotOf(20))[0], 1.5f);
    EXPECT_EQ(storage.row(controller.slotOf(30))[1], -2.5f);
    EXPECT_EQ(slots.row(10)[0], 0.0f);
    EXPECT_EQ(slots.row(20)[1], 0.0f);
    EXPECT_EQ(slots.row(30)[0], 0.0f);
    EXPECT_EQ(slots.row(40)[1], 0.0f);
}

TEST(SlotArray, OutOfRangeSlotPanics)
{
    emb::EmbeddingTable storage(4, 2);
    EXPECT_THROW(storage.row(4), PanicError);
}

TEST(SlotArray, InvalidGeometryFatal)
{
    EXPECT_THROW(emb::EmbeddingTable(0, 2), FatalError);
    EXPECT_THROW(emb::EmbeddingTable(2, 0), FatalError);
}

TEST(SlotArray, PaperWorstCaseFootprint)
{
    // §VI-D: 8 tables x 20 gathers x 2048 batch x 512 B x 6 batches
    // = 960 MB of worst-case Storage provisioning.
    ModelConfig model;
    model.embedding_dim = 128;
    const uint32_t slots =
        ScratchPipeController::worstCaseSlots(3, 2, 20 * 2048);
    EXPECT_EQ(scratchpadStorageBytes(model, slots) * 8,
              960ull * 1024 * 1024);
}

} // namespace
} // namespace sp::sys
