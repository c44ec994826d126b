#include "sim/pipeline_solver.h"

#include <algorithm>

#include "common/logging.h"

namespace sp::sim
{

PipelineSolution
solvePipeline(const std::vector<StageDemand> &stages)
{
    fatalIf(stages.empty(), "pipeline needs at least one stage");

    PipelineSolution solution;
    solution.stage_latencies.reserve(stages.size());

    // Stage bound.
    double cycle = 0.0;
    for (const auto &stage : stages) {
        const double latency = stage.latency();
        solution.stage_latencies.push_back(latency);
        if (latency > cycle) {
            cycle = latency;
            solution.bottleneck = stage.name;
        }
        solution.resource_totals += stage.demand;
    }

    // Resource bound: concurrent stages time-share each resource.
    for (size_t r = 0; r < kNumResources; ++r) {
        const double demand = solution.resource_totals.seconds[r];
        if (demand > cycle) {
            cycle = demand;
            solution.bottleneck =
                std::string("resource:") +
                resourceName(static_cast<Resource>(r));
        }
    }

    solution.cycle_time = cycle;
    return solution;
}

double
sequentialIterationTime(const std::vector<StageDemand> &stages)
{
    double total = 0.0;
    for (const auto &stage : stages)
        total += stage.latency();
    return total;
}

} // namespace sp::sim
