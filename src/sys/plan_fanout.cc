#include "sys/plan_fanout.h"

namespace sp::sys
{

const core::PlanResult &
planTableBatch(core::ScratchPipeController &controller,
               const data::TraceDataset &dataset, uint64_t index,
               size_t table, std::vector<std::span<const uint64_t>> &futures)
{
    futures.clear();
    for (uint32_t d = 1; d <= controller.config().future_window; ++d) {
        const data::MiniBatch *next = dataset.lookAhead(index, d);
        if (next == nullptr)
            break;
        futures.emplace_back(next->ids(table));
    }
    return controller.plan(dataset.batch(index).ids(table), futures);
}

void
planTableStream(core::ScratchPipeController &controller,
                const data::TraceDataset &dataset, size_t table,
                size_t num_tables, std::span<TablePlanOutcome> outcomes)
{
    panicIf(table >= num_tables || outcomes.size() % num_tables != 0,
            "planTableStream: table ", table, " of ", num_tables,
            " over ", outcomes.size(), " outcomes");
    std::vector<std::span<const uint64_t>> futures;
    futures.reserve(controller.config().future_window);
    const uint64_t batches = outcomes.size() / num_tables;
    for (uint64_t i = 0; i < batches; ++i) {
        const core::PlanResult &plan =
            planTableBatch(controller, dataset, i, table, futures);
        outcomes[i * num_tables + table] = {plan.fills.size(),
                                            plan.evictions.size(),
                                            plan.hits,
                                            plan.hits + plan.misses};
    }
}

} // namespace sp::sys
