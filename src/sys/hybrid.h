/**
 * @file
 * Baseline hybrid CPU-GPU system without caching (paper Fig. 4(a)).
 *
 * The CPU stores every embedding table and executes both the
 * memory-bound embedding forward (gather + reduce) and backward
 * (duplicate + coalesce + scatter); the GPU trains the MLPs. The
 * iteration is the sequential sum of: CPU embedding forward, reduced
 * embeddings H2D, GPU MLP forward/backward, gradients D2H, CPU
 * embedding backward -- the structure whose CPU-bound latency Fig. 5
 * breaks down.
 */

#ifndef SP_SYS_HYBRID_H
#define SP_SYS_HYBRID_H

#include "sys/system.h"

namespace sp::sys
{

/** Timing model of the no-cache hybrid CPU-GPU baseline. */
class HybridCpuGpu : public System
{
  public:
    HybridCpuGpu(const ModelConfig &model,
                 const sim::HardwareConfig &hardware);

    /**
     * Simulate `iterations` batches of `dataset` (timing only).
     * @param stats Shared per-batch unique-ID counts.
     */
    RunResult simulate(const data::TraceDataset &dataset,
                       const BatchStats &stats, uint64_t iterations,
                       uint64_t warmup = 0) const override;

    std::string name() const override { return "Hybrid CPU-GPU"; }
};

} // namespace sp::sys

#endif // SP_SYS_HYBRID_H
