/** @file LatencyModel arithmetic and demand-combination tests. */

#include <gtest/gtest.h>

#include "emb/traffic.h"
#include "sim/latency_model.h"

namespace sp::sim
{
namespace
{

using CpuPath = LatencyModel::CpuPath;

HardwareConfig
simpleHw()
{
    HardwareConfig hw;
    hw.cpu_dram_bw = 100e9;
    hw.cpu_sparse_eff_framework = 0.05;
    hw.cpu_sparse_eff_runtime = 0.10;
    hw.cpu_dense_eff = 0.50;
    hw.gpu_hbm_bw = 1000e9;
    hw.gpu_sparse_eff = 0.50;
    hw.gpu_dense_eff = 1.0;
    hw.gpu_fp32_flops = 10e12;
    hw.gpu_gemm_eff = 0.10;
    hw.pcie_bw = 10e9;
    hw.pcie_eff = 1.0;
    hw.pcie_latency = 0.0;
    return hw;
}

TEST(LatencyModel, CpuTimeSplitsByPattern)
{
    const LatencyModel model(simpleHw());
    emb::Traffic t;
    t.sparse_read_bytes = 5e9; // at 5 GB/s -> 1 s
    t.dense_read_bytes = 50e9; // at 50 GB/s -> 1 s
    EXPECT_NEAR(model.cpuTime(t, CpuPath::Framework), 2.0, 1e-9);
}

TEST(LatencyModel, RuntimePathFasterForSparse)
{
    const LatencyModel model(simpleHw());
    emb::Traffic t;
    t.sparse_read_bytes = 1e9;
    EXPECT_NEAR(model.cpuTime(t, CpuPath::Framework) /
                    model.cpuTime(t, CpuPath::Runtime),
                2.0, 1e-9);
}

TEST(LatencyModel, GpuMemTime)
{
    const LatencyModel model(simpleHw());
    emb::Traffic t;
    t.sparse_write_bytes = 500e9; // at 500 GB/s -> 1 s
    t.dense_write_bytes = 1000e9; // at 1 TB/s -> 1 s
    EXPECT_NEAR(model.gpuMemTime(t), 2.0, 1e-9);
}

TEST(LatencyModel, GpuComputeTime)
{
    const LatencyModel model(simpleHw());
    EXPECT_NEAR(model.gpuComputeTime(1e12), 1.0, 1e-9); // 1 TFLOP at 1 TF/s
}

TEST(LatencyModel, PcieTimeIncludesLatency)
{
    HardwareConfig hw = simpleHw();
    hw.pcie_latency = 0.5;
    const LatencyModel model(hw);
    EXPECT_NEAR(model.pcieTime(10e9), 1.5, 1e-9);
    EXPECT_DOUBLE_EQ(model.pcieTime(0.0), 0.0); // no transfer, no launch
}

TEST(LatencyModel, DemandPlacesTimeOnRightResource)
{
    const LatencyModel model(simpleHw());
    emb::Traffic t;
    t.dense_read_bytes = 50e9;
    const ResourceDemand cpu = model.cpuDemand(t, CpuPath::Framework);
    EXPECT_GT(cpu[Resource::CpuDram], 0.0);
    EXPECT_DOUBLE_EQ(cpu[Resource::GpuHbm], 0.0);

    const ResourceDemand h2d = model.pcieH2DDemand(1e9);
    EXPECT_GT(h2d[Resource::PcieH2D], 0.0);
    EXPECT_DOUBLE_EQ(h2d[Resource::PcieD2H], 0.0);
}

TEST(LatencyModel, DemandAddition)
{
    ResourceDemand a, b;
    a[Resource::CpuDram] = 1.0;
    b[Resource::CpuDram] = 2.0;
    b[Resource::GpuHbm] = 3.0;
    const ResourceDemand sum = a + b;
    EXPECT_DOUBLE_EQ(sum[Resource::CpuDram], 3.0);
    EXPECT_DOUBLE_EQ(sum[Resource::GpuHbm], 3.0);
}

TEST(LatencyModel, StageLatencyOverlapsDevices)
{
    // CPU work and PCIe overlap; GPU mem + compute serialize.
    ResourceDemand d;
    d[Resource::CpuDram] = 2.0;
    d[Resource::PcieH2D] = 1.5;
    EXPECT_DOUBLE_EQ(d.stageLatency(), 2.0);

    ResourceDemand gpu;
    gpu[Resource::GpuHbm] = 1.0;
    gpu[Resource::GpuCompute] = 1.0;
    EXPECT_DOUBLE_EQ(gpu.stageLatency(), 2.0);
}

TEST(LatencyModel, ResourceNamesDistinct)
{
    for (size_t i = 0; i < kNumResources; ++i) {
        for (size_t j = i + 1; j < kNumResources; ++j) {
            EXPECT_STRNE(resourceName(static_cast<Resource>(i)),
                         resourceName(static_cast<Resource>(j)));
        }
    }
}

TEST(LatencyModel, NvlinkIncludesCollectiveLatency)
{
    HardwareConfig hw = simpleHw();
    hw.nvlink_bw = 100e9;
    hw.nvlink_eff = 1.0;
    hw.collective_latency = 0.25;
    const LatencyModel model(hw);
    EXPECT_NEAR(model.nvlinkTime(100e9), 1.25, 1e-9);
}

} // namespace
} // namespace sp::sim
