/**
 * @file
 * The 8-GPU "GPU-only" comparison system (paper Section VI-F).
 *
 * Embedding tables are partitioned table-wise across the GPUs' HBM
 * (model parallelism); the MLPs train data-parallel. One iteration:
 * per-GPU embedding forward at HBM speed, an all-to-all exchanging the
 * reduced embeddings, data-parallel MLP forward/backward, a gradient
 * all-reduce, the reverse all-to-all, and the per-GPU embedding
 * backward. Hot rows serialize their atomic updates, which is why
 * Table I's multi-GPU times *rise* slightly with locality.
 *
 * This system exists to reproduce Table I's cost comparison; its
 * absolute time is dominated by the distributed framework's fixed
 * overheads (calibrated once against Table I, see DESIGN.md).
 */

#ifndef SP_SYS_MULTIGPU_H
#define SP_SYS_MULTIGPU_H

#include "sys/system.h"

namespace sp::sys
{

/** Timing model of the 8x V100 model-parallel trainer. */
class MultiGpuSystem : public System
{
  public:
    MultiGpuSystem(const ModelConfig &model,
                   const sim::HardwareConfig &hardware);

    RunResult simulate(const data::TraceDataset &dataset,
                       const BatchStats &stats, uint64_t iterations,
                       uint64_t warmup = 0) const override;

    std::string name() const override { return "8-GPU"; }
};

} // namespace sp::sys

#endif // SP_SYS_MULTIGPU_H
