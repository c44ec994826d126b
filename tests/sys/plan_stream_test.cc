/**
 * @file
 * The per-table [Plan] stream (sys/plan_fanout.h) against a serial
 * reference.
 *
 * planTableStream runs one table through every batch on its own pool
 * task. Over fresh makeScratchpadControllers() controllers at pool
 * width 4, every (batch, table) outcome must equal the one a
 * batch-major serial loop written here produces from controllers it
 * configures itself. That pins the stream's futures and batch order,
 * the column it writes in the batch-major buffer, and (through LFU's
 * and Random's seeded RNGs) that table t's controller carries seed
 * 0x5eed + t into its task.
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/controller.h"
#include "data/dataset.h"
#include "sys/plan_fanout.h"
#include "sys/scratchpipe_sys.h"

namespace sp::sys
{
namespace
{

// 4 tables over 13 batches: the buffer is not square, so a transposed
// write cannot land on the right cell.
constexpr uint64_t kBatches = 13;

ModelConfig
streamModel()
{
    ModelConfig model = ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Low;
    model.trace.seed = 4242;
    return model;
}

std::string
describe(const ScratchPipeOptions &options)
{
    return std::string(cache::policyName(options.policy)) +
           " warm=" + std::to_string(options.warm_start) +
           " future=" + std::to_string(options.future_window);
}

/** The serial reference: controllers configured here (seed 0x5eed + t),
 *  planned batch-major. Returns outcome (i, t) at
 *  i * tables + t. */
std::vector<TablePlanOutcome>
serialOutcomes(const ModelConfig &model, const ScratchPipeOptions &options,
               const data::TraceDataset &dataset)
{
    const size_t tables = model.trace.num_tables;
    std::vector<core::ScratchPipeController> controllers;
    for (size_t t = 0; t < tables; ++t) {
        core::ControllerConfig cc;
        cc.num_slots = scratchpadSlots(model, options);
        cc.dim = model.embedding_dim;
        cc.past_window = options.past_window;
        cc.future_window = options.future_window;
        cc.policy = options.policy;
        cc.policy_seed = 0x5eed + t;
        cc.backing = cache::SlotArray::Backing::Phantom;
        cc.warm_start = options.warm_start;
        controllers.emplace_back(cc);
    }
    std::vector<TablePlanOutcome> outcomes(kBatches * tables);
    for (uint64_t i = 0; i < kBatches; ++i) {
        for (size_t t = 0; t < tables; ++t) {
            std::vector<std::span<const uint64_t>> futures;
            for (uint64_t d = 1; d <= options.future_window; ++d)
                if (i + d < kBatches)
                    futures.emplace_back(dataset.batch(i + d).ids(t));
            const core::PlanResult &plan =
                controllers[t].plan(dataset.batch(i).ids(t), futures);
            outcomes[i * tables + t] = {plan.fills.size(),
                                        plan.evictions.size(), plan.hits,
                                        plan.hits + plan.misses};
        }
    }
    return outcomes;
}

void
expectSameOutcomes(std::span<const TablePlanOutcome> expected,
                   std::span<const TablePlanOutcome> got, size_t tables,
                   const std::string &label)
{
    ASSERT_EQ(expected.size(), got.size()) << label;
    for (size_t cell = 0; cell < expected.size(); ++cell) {
        const std::string where = label + " batch " +
                                  std::to_string(cell / tables) +
                                  " table " + std::to_string(cell % tables);
        EXPECT_EQ(expected[cell].fills, got[cell].fills) << where;
        EXPECT_EQ(expected[cell].evicts, got[cell].evicts) << where;
        EXPECT_EQ(expected[cell].hits, got[cell].hits) << where;
        EXPECT_EQ(expected[cell].ids, got[cell].ids) << where;
    }
}

TEST(PlanStream, EveryCellMatchesABatchMajorSerialLoop)
{
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const ModelConfig model = streamModel();
    const size_t tables = model.trace.num_tables;
    const data::TraceDataset dataset(model.trace, kBatches);
    uint64_t evicts = 0;
    for (const cache::PolicyKind policy :
         {cache::PolicyKind::Lru, cache::PolicyKind::Lfu,
          cache::PolicyKind::Fifo, cache::PolicyKind::Random}) {
        for (const bool warm : {false, true}) {
            for (const uint32_t future : {0u, 1u, 2u}) {
                ScratchPipeOptions options;
                options.cache_fraction = 0.05;
                options.policy = policy;
                options.warm_start = warm;
                options.future_window = future;
                std::vector<core::ScratchPipeController> controllers =
                    makeScratchpadControllers(
                        model, options, cache::SlotArray::Backing::Phantom);
                std::vector<TablePlanOutcome> outcomes(kBatches * tables);
                common::parallelFor(tables, [&](size_t t) {
                    planTableStream(controllers[t], dataset, t, tables,
                                    outcomes);
                });
                const std::vector<TablePlanOutcome> expected =
                    serialOutcomes(model, options, dataset);
                expectSameOutcomes(expected, outcomes, tables,
                                   describe(options));
                for (const TablePlanOutcome &cell : expected)
                    evicts += cell.evicts;
            }
        }
    }
    // The scratchpad really churned, so victim choice (and with it
    // each table's seed) shaped the outcomes.
    EXPECT_GT(evicts, 0u);
}

TEST(PlanStream, FanoutConsumesEveryBatchInOrder)
{
    if (common::ThreadPool::global().size() < 4)
        common::ThreadPool::setGlobalThreads(4);
    const ModelConfig model = streamModel();
    const size_t tables = model.trace.num_tables;
    const data::TraceDataset dataset(model.trace, kBatches);
    ScratchPipeOptions options;
    options.cache_fraction = 0.05;
    options.policy = cache::PolicyKind::Random;
    std::vector<core::ScratchPipeController> controllers =
        makeScratchpadControllers(model, options,
                                  cache::SlotArray::Backing::Phantom);
    std::vector<TablePlanOutcome> consumed;
    uint64_t next = 0;
    PlanFanout fanout(tables, options.future_window);
    fanout.forEachBatch(controllers, dataset, kBatches, true,
                        [&](uint64_t i, const auto &outcomes) {
                            EXPECT_EQ(i, next++);
                            ASSERT_EQ(outcomes.size(), tables);
                            consumed.insert(consumed.end(),
                                            outcomes.begin(),
                                            outcomes.end());
                        });
    EXPECT_EQ(next, kBatches);
    expectSameOutcomes(serialOutcomes(model, options, dataset), consumed,
                       tables, describe(options));
}

} // namespace
} // namespace sp::sys
