#include "sim/latency_model.h"

#include <algorithm>

#include "common/logging.h"

namespace sp::sim
{

const char *
resourceName(Resource r)
{
    switch (r) {
      case Resource::CpuDram:
        return "cpu_dram";
      case Resource::GpuHbm:
        return "gpu_hbm";
      case Resource::GpuCompute:
        return "gpu_compute";
      case Resource::PcieH2D:
        return "pcie_h2d";
      case Resource::PcieD2H:
        return "pcie_d2h";
      case Resource::NvLink:
        return "nvlink";
      default:
        panic("unknown Resource");
    }
}

ResourceDemand &
ResourceDemand::operator+=(const ResourceDemand &other)
{
    for (size_t i = 0; i < kNumResources; ++i)
        seconds[i] += other.seconds[i];
    return *this;
}

double
ResourceDemand::stageLatency() const
{
    const double cpu = (*this)[Resource::CpuDram];
    const double gpu =
        (*this)[Resource::GpuHbm] + (*this)[Resource::GpuCompute];
    const double h2d = (*this)[Resource::PcieH2D];
    const double d2h = (*this)[Resource::PcieD2H];
    const double nvl = (*this)[Resource::NvLink];
    return std::max({cpu, gpu, h2d, d2h, nvl});
}

LatencyModel::LatencyModel(const HardwareConfig &config) : config_(config)
{
    config_.validate();
}

double
LatencyModel::cpuTime(const emb::Traffic &traffic, CpuPath path) const
{
    const double sparse_bw = path == CpuPath::Framework
                                 ? config_.cpuSparseBwFramework()
                                 : config_.cpuSparseBwRuntime();
    return traffic.sparseBytes() / sparse_bw +
           traffic.denseBytes() / config_.cpuDenseBw();
}

double
LatencyModel::gpuMemTime(const emb::Traffic &traffic) const
{
    return traffic.sparseBytes() / config_.gpuSparseBw() +
           traffic.denseBytes() / config_.gpuDenseBw();
}

double
LatencyModel::gpuComputeTime(double flops) const
{
    return flops / config_.gpuGemmFlops();
}

double
LatencyModel::pcieTime(double bytes) const
{
    if (bytes <= 0.0)
        return 0.0;
    return config_.pcie_latency + bytes / config_.pcieEffectiveBw();
}

double
LatencyModel::nvlinkTime(double bytes) const
{
    if (bytes <= 0.0)
        return 0.0;
    return config_.collective_latency +
           bytes / config_.nvlinkEffectiveBw();
}

ResourceDemand
LatencyModel::cpuDemand(const emb::Traffic &traffic, CpuPath path) const
{
    ResourceDemand d;
    d[Resource::CpuDram] = cpuTime(traffic, path);
    return d;
}

ResourceDemand
LatencyModel::gpuMemDemand(const emb::Traffic &traffic) const
{
    ResourceDemand d;
    d[Resource::GpuHbm] = gpuMemTime(traffic);
    return d;
}

ResourceDemand
LatencyModel::gpuComputeDemand(double flops) const
{
    ResourceDemand d;
    d[Resource::GpuCompute] = gpuComputeTime(flops);
    return d;
}

ResourceDemand
LatencyModel::pcieH2DDemand(double bytes) const
{
    ResourceDemand d;
    d[Resource::PcieH2D] = pcieTime(bytes);
    return d;
}

ResourceDemand
LatencyModel::pcieD2HDemand(double bytes) const
{
    ResourceDemand d;
    d[Resource::PcieD2H] = pcieTime(bytes);
    return d;
}

ResourceDemand
LatencyModel::nvlinkDemand(double bytes) const
{
    ResourceDemand d;
    d[Resource::NvLink] = nvlinkTime(bytes);
    return d;
}

} // namespace sp::sim
