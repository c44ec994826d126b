/**
 * @file
 * Traffic -> time conversion and the resource-demand vector.
 *
 * Every stage of every system model reduces to "move these bytes over
 * that link / run these FLOPs on that engine". A ResourceDemand is the
 * per-resource seconds a stage consumes; LatencyModel builds demands
 * from emb::Traffic byte counts and FLOP counts using the
 * HardwareConfig's effective rates.
 *
 * Stage latency combines demands by device: times on the same device
 * serialize (a GPU cannot stream HBM for the embedding kernels while
 * those kernels haven't been issued), while distinct devices overlap.
 */

#ifndef SP_SIM_LATENCY_MODEL_H
#define SP_SIM_LATENCY_MODEL_H

#include <array>
#include <cstddef>
#include <string>

#include "emb/traffic.h"
#include "sim/hardware_config.h"

namespace sp::sim
{

/** The contended hardware resources of the modeled server. */
enum class Resource : size_t
{
    CpuDram,    //!< CPU-side memory bandwidth (incl. CPU work)
    GpuHbm,     //!< GPU memory bandwidth
    GpuCompute, //!< GPU SM throughput
    PcieH2D,    //!< host-to-device link
    PcieD2H,    //!< device-to-host link
    NvLink,     //!< inter-GPU fabric (multi-GPU model only)
    NumResources,
};

inline constexpr size_t kNumResources =
    static_cast<size_t>(Resource::NumResources);

/** Short resource name for reports. */
const char *resourceName(Resource r);

/** Seconds of demand a piece of work places on each resource. */
struct ResourceDemand
{
    std::array<double, kNumResources> seconds{};

    double &operator[](Resource r)
    {
        return seconds[static_cast<size_t>(r)];
    }
    double operator[](Resource r) const
    {
        return seconds[static_cast<size_t>(r)];
    }

    ResourceDemand &operator+=(const ResourceDemand &other);
    friend ResourceDemand operator+(ResourceDemand a,
                                    const ResourceDemand &b)
    {
        a += b;
        return a;
    }

    /**
     * Latency of executing this demand as one stage: same-device
     * components serialize, independent devices overlap.
     * Device groups: {CpuDram}, {GpuHbm, GpuCompute}, {PcieH2D},
     * {PcieD2H}, {NvLink}.
     */
    double stageLatency() const;
};

/** Converts byte/FLOP counts to per-resource seconds. */
class LatencyModel
{
  public:
    /** Which sparse-access efficiency applies to CPU-side traffic. */
    enum class CpuPath
    {
        Framework, //!< baseline framework gather/scatter ops
        Runtime,   //!< ScratchPipe batched collect/insert copies
    };

    explicit LatencyModel(const HardwareConfig &config);

    const HardwareConfig &config() const { return config_; }

    /** Seconds of CPU DRAM time for the given traffic. */
    double cpuTime(const emb::Traffic &traffic, CpuPath path) const;

    /** Seconds of GPU HBM time for the given traffic. */
    double gpuMemTime(const emb::Traffic &traffic) const;

    /** Seconds of GPU compute for the given FLOPs. */
    double gpuComputeTime(double flops) const;

    /** Seconds to move `bytes` over one PCIe direction. */
    double pcieTime(double bytes) const;

    /** Seconds to move `bytes` over NVLink (per GPU port). */
    double nvlinkTime(double bytes) const;

    // Demand builders ------------------------------------------------
    ResourceDemand cpuDemand(const emb::Traffic &traffic,
                             CpuPath path) const;
    ResourceDemand gpuMemDemand(const emb::Traffic &traffic) const;
    ResourceDemand gpuComputeDemand(double flops) const;
    ResourceDemand pcieH2DDemand(double bytes) const;
    ResourceDemand pcieD2HDemand(double bytes) const;
    ResourceDemand nvlinkDemand(double bytes) const;

  private:
    HardwareConfig config_;
};

} // namespace sp::sim

#endif // SP_SIM_LATENCY_MODEL_H
