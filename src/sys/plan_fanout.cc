#include "sys/plan_fanout.h"

namespace sp::sys
{

void
planTableStream(core::ScratchPipeController &controller,
                const data::TraceDataset &dataset, size_t table,
                size_t num_tables, std::span<TablePlanOutcome> outcomes)
{
    panicIf(table >= num_tables || outcomes.size() % num_tables != 0,
            "planTableStream: table ", table, " of ", num_tables,
            " over ", outcomes.size(), " outcomes");
    const uint32_t window = controller.config().future_window;
    std::vector<std::span<const uint64_t>> futures;
    futures.reserve(window);
    const uint64_t batches = outcomes.size() / num_tables;
    for (uint64_t i = 0; i < batches; ++i) {
        futures.clear();
        for (uint32_t d = 1; d <= window; ++d) {
            const data::MiniBatch *next = dataset.lookAhead(i, d);
            if (next == nullptr)
                break;
            futures.emplace_back(next->ids(table));
        }
        const core::PlanResult &plan =
            controller.plan(dataset.batch(i).ids(table), futures);
        outcomes[i * num_tables + table] = {plan.fills.size(),
                                            plan.evictions.size(),
                                            plan.hits,
                                            plan.hits + plan.misses};
    }
}

} // namespace sp::sys
