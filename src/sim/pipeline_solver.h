/**
 * @file
 * Steady-state solver for the pipelined execution model.
 *
 * ScratchPipe runs six stages concurrently, each on a different
 * in-flight mini-batch (paper Fig. 10). In steady state a new
 * iteration retires every pipeline "cycle". The cycle time is bounded
 * below by two constraint families:
 *
 *  1. stage bound:    no stage may take longer than one cycle;
 *  2. resource bound: concurrently executing stages time-share each
 *     hardware resource, so the summed per-cycle demand on any
 *     resource must fit within one cycle.
 *
 * The solver takes per-stage ResourceDemand vectors (typically
 * averaged over measured iterations) and reports the cycle time and
 * the binding constraint.
 */

#ifndef SP_SIM_PIPELINE_SOLVER_H
#define SP_SIM_PIPELINE_SOLVER_H

#include <string>
#include <vector>

#include "sim/latency_model.h"

namespace sp::sim
{

/** One named pipeline stage and its per-iteration demand. */
struct StageDemand
{
    std::string name;
    ResourceDemand demand;
    /** Fixed per-stage overhead added to the stage's latency (s). */
    double overhead = 0.0;

    double latency() const { return demand.stageLatency() + overhead; }
};

/** Output of the steady-state analysis. */
struct PipelineSolution
{
    /** Steady-state seconds per retired iteration. */
    double cycle_time = 0.0;
    /** Name of the binding stage, or "resource:<name>" when a
     *  resource bound dominates. */
    std::string bottleneck;
    /** Per-stage latencies in stage order (for Fig. 12(b)). */
    std::vector<double> stage_latencies;
    /** Per-resource summed demand per cycle. */
    ResourceDemand resource_totals;
};

/** Solve the steady state for the given stage demands. */
PipelineSolution solvePipeline(const std::vector<StageDemand> &stages);

/**
 * Sequential (non-pipelined) execution of the same stages: one
 * iteration costs the sum of all stage latencies. This is the
 * straw-man's timing.
 */
double sequentialIterationTime(const std::vector<StageDemand> &stages);

} // namespace sp::sim

#endif // SP_SIM_PIPELINE_SOLVER_H
