/**
 * @file
 * CPU-GPU system with a static top-N GPU embedding cache
 * (paper Fig. 4(b), the Yin et al. baseline).
 *
 * The hottest `cache_fraction` of every table's rows live permanently
 * in GPU memory. Each iteration: sparse IDs go H2D and are classified;
 * missed IDs return D2H; the CPU gathers missed rows and ships them up;
 * the GPU reduces hit+missed embeddings and trains the MLPs; hit-ID
 * gradients update the cache on the GPU while missed-ID gradients are
 * duplicated/coalesced/scattered on the *CPU* -- the black stages of
 * Fig. 4(b) whose latency the paper identifies as the residual
 * bottleneck.
 *
 * The synthetic samplers emit rank-ordered IDs (ID 0 hottest), so
 * top-N membership in timing mode is the threshold test id < N --
 * exactly the frequency ranking the real system would profile.
 */

#ifndef SP_SYS_STATIC_SYS_H
#define SP_SYS_STATIC_SYS_H

#include "sys/system.h"

namespace sp::sys
{

/** Timing model of the static-cache CPU-GPU baseline. */
class StaticCacheSystem : public System
{
  public:
    /**
     * @param cache_fraction Fraction of each table cached (paper
     *        studies 0.02 - 0.10); cachedRows() checks it.
     */
    StaticCacheSystem(const ModelConfig &model,
                      const sim::HardwareConfig &hardware,
                      double cache_fraction);

    RunResult simulate(const data::TraceDataset &dataset,
                       const BatchStats &stats, uint64_t iterations,
                       uint64_t warmup = 0) const override;

    std::string name() const override { return "Static cache"; }

  private:
    uint64_t cached_rows_;
};

} // namespace sp::sys

#endif // SP_SYS_STATIC_SYS_H
