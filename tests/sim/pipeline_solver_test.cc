/** @file Steady-state pipeline solver tests. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sim/pipeline_solver.h"

namespace sp::sim
{
namespace
{

StageDemand
cpuStage(const std::string &name, double seconds, double overhead = 0.0)
{
    StageDemand stage;
    stage.name = name;
    stage.demand[Resource::CpuDram] = seconds;
    stage.overhead = overhead;
    return stage;
}

StageDemand
gpuStage(const std::string &name, double seconds)
{
    StageDemand stage;
    stage.name = name;
    stage.demand[Resource::GpuCompute] = seconds;
    return stage;
}

TEST(PipelineSolver, SlowestStageBinds)
{
    std::vector<StageDemand> stages = {cpuStage("a", 1.0),
                                       gpuStage("b", 3.0)};
    const auto solution = solvePipeline(stages);
    EXPECT_DOUBLE_EQ(solution.cycle_time, 3.0);
    EXPECT_EQ(solution.bottleneck, "b");
}

TEST(PipelineSolver, SharedResourceSumsAcrossStages)
{
    // Two stages each need 2 s of the same resource: the cycle must
    // fit both, so the resource bound (4 s) dominates the stage bound.
    std::vector<StageDemand> stages = {cpuStage("a", 2.0),
                                       cpuStage("b", 2.0)};
    const auto solution = solvePipeline(stages);
    EXPECT_DOUBLE_EQ(solution.cycle_time, 4.0);
    EXPECT_EQ(solution.bottleneck, "resource:cpu_dram");
}

TEST(PipelineSolver, IndependentResourcesOverlap)
{
    std::vector<StageDemand> stages = {cpuStage("a", 2.0),
                                       gpuStage("b", 2.0)};
    const auto solution = solvePipeline(stages);
    EXPECT_DOUBLE_EQ(solution.cycle_time, 2.0);
}

TEST(PipelineSolver, OverheadAddsToStageLatency)
{
    std::vector<StageDemand> stages = {cpuStage("a", 1.0, 0.5)};
    const auto solution = solvePipeline(stages);
    EXPECT_DOUBLE_EQ(solution.cycle_time, 1.5);
    EXPECT_DOUBLE_EQ(solution.stage_latencies[0], 1.5);
}

TEST(PipelineSolver, StageLatenciesReported)
{
    std::vector<StageDemand> stages = {cpuStage("a", 1.0),
                                       gpuStage("b", 2.0),
                                       cpuStage("c", 0.5)};
    const auto solution = solvePipeline(stages);
    ASSERT_EQ(solution.stage_latencies.size(), 3u);
    EXPECT_DOUBLE_EQ(solution.stage_latencies[0], 1.0);
    EXPECT_DOUBLE_EQ(solution.stage_latencies[1], 2.0);
    EXPECT_DOUBLE_EQ(solution.stage_latencies[2], 0.5);
}

TEST(PipelineSolver, PipeliningBeatsSequentialExecution)
{
    std::vector<StageDemand> stages = {cpuStage("a", 1.0),
                                       gpuStage("b", 1.0)};
    const auto solution = solvePipeline(stages);
    EXPECT_LT(solution.cycle_time, sequentialIterationTime(stages));
}

TEST(PipelineSolver, PipelineNeverFasterThanResourceLimit)
{
    // Whatever the structure, the cycle cannot beat the busiest
    // resource's total demand.
    std::vector<StageDemand> stages = {cpuStage("a", 1.0),
                                       cpuStage("b", 0.25),
                                       gpuStage("c", 0.5)};
    const auto solution = solvePipeline(stages);
    EXPECT_GE(solution.cycle_time, 1.25);
}

TEST(PipelineSolver, SequentialIsSumOfLatencies)
{
    std::vector<StageDemand> stages = {cpuStage("a", 1.0, 0.1),
                                       gpuStage("b", 2.0)};
    EXPECT_DOUBLE_EQ(sequentialIterationTime(stages), 3.1);
}

TEST(PipelineSolver, EmptyPipelineFatal)
{
    std::vector<StageDemand> stages;
    EXPECT_THROW(solvePipeline(stages), FatalError);
}

TEST(PipelineSolver, SixStagePaperShape)
{
    // A ScratchPipe-like shape: Train on the GPU dominates stage-wise,
    // but CPU work spread over Collect+Insert can become the resource
    // bound -- exactly the crossover the paper's Fig. 12(b) shows
    // between high- and low-locality traces.
    auto pcie_stage = [](const std::string &name, double seconds) {
        StageDemand stage;
        stage.name = name;
        stage.demand[Resource::PcieH2D] = seconds;
        return stage;
    };
    std::vector<StageDemand> low_locality = {
        cpuStage("Load", 0.001), cpuStage("Plan", 0.002),
        cpuStage("Collect", 0.020), pcie_stage("Exchange", 0.009),
        cpuStage("Insert", 0.020), gpuStage("Train", 0.021)};
    const auto low = solvePipeline(low_locality);
    EXPECT_EQ(low.bottleneck, "resource:cpu_dram");
    EXPECT_NEAR(low.cycle_time, 0.043, 1e-9);

    std::vector<StageDemand> high_locality = {
        cpuStage("Load", 0.001), cpuStage("Plan", 0.002),
        cpuStage("Collect", 0.004), pcie_stage("Exchange", 0.002),
        cpuStage("Insert", 0.004), gpuStage("Train", 0.021)};
    const auto high = solvePipeline(high_locality);
    EXPECT_EQ(high.bottleneck, "Train");
}

} // namespace
} // namespace sp::sim
