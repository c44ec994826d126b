/**
 * @file
 * Online inference serving: open-loop arrivals, latency-budget
 * admission batching, and a two-tier GPU-cache -> host parameter
 * server.
 *
 * This is the production counterpart of the training sweeps -- the
 * HugeCTR-HPS / Triton-backend shape: a host-resident parameter
 * server holds every embedding table, a GPU-resident embedding cache
 * holds the hot fraction, and batched inference requests hit the GPU
 * tier first and fall through to the host for misses. Requests arrive
 * open-loop (the stream does not slow down when the server falls
 * behind), so queueing delay and SLO tails are first-class outputs:
 * the system reports p50/p99/p999 request latency and queue depth in
 * RunResult::serving next to the usual throughput metrics.
 *
 * Which requests share a batch depends only on the pre-drawn
 * arrivals, the drops, `batch_max` and `budget_us` -- never on how
 * busy the server is -- so a run is three passes in virtual time, with
 * no event loop:
 *
 *   admission   one loop draws each arrival (data::ArrivalProcess),
 *               checks the serve.request.drop fault point and samples
 *               the queue depth. A batch closes when it holds
 *               `batch_max` requests or at its deadline, `budget_us`
 *               after its oldest request arrived. Tie rule: when the
 *               deadline equals an arrival time, the request right
 *               after the oldest one still joins the batch and any
 *               later request starts the next one (the order of an
 *               event queue firing equal times in scheduling order)
 *   tier replay each table's GPU tier replays that table's IDs in
 *               dispatch order; tables fan out over
 *               common::parallelFor and write integer per-batch hit
 *               counts, so results are bit-identical at any pool width
 *   service     one loop over the batches in order: the single FIFO
 *               server starts a batch at max(admit time, when it
 *               frees up), and its service time covers the GPU-tier
 *               probe, the host gather of missed rows, PCIe and the
 *               DLRM forward pass
 *
 * Request -> ID mapping: request r plays sample r % batch_size of
 * trace batch r / batch_size, so the serving stream reuses the exact
 * Zipf/workload-zoo ID space of the training sweeps, including every
 * shaping overlay.
 *
 * GPU-tier refresh: `refresh=static` pins the hottest ranks
 * (synthetic IDs are rank-ordered, as in StaticCacheSystem);
 * lru/lfu/fifo/random run a dynamic cache (cache::HitMap +
 * cache::ReplacementPolicy) that admits every missed row, evicting
 * the policy's victim.
 *
 * Fault site "serve.request.drop": when armed, the arriving request
 * is counted dropped and excluded from latency/queue accounting; the
 * stream continues and the run completes with drops reported in
 * RunResult::serving.dropped.
 */

#ifndef SP_SYS_SERVING_H
#define SP_SYS_SERVING_H

#include <cstdint>
#include <string>

#include "cache/replacement.h"
#include "data/arrival.h"
#include "sys/system.h"

namespace sp::sys
{

/** Tunables of the serve: system family (see sys/spec.h grammar). */
struct ServeOptions
{
    /** Open-loop request stream (kind, rate, burst shape). */
    data::ArrivalConfig arrival;
    /** Admission batch cap: dispatch as soon as this many requests
     *  are queued (>= 1). */
    uint32_t batch_max = 32;
    /** Admission latency budget, microseconds: dispatch a partial
     *  batch rather than let its oldest request wait longer than
     *  this. Stored in the spec's unit so the grammar round-trips. */
    double budget_us = 200.0;
    /** False: the GPU tier statically pins the hottest ranks. True:
     *  it refreshes dynamically under `policy`. */
    bool dynamic_refresh = false;
    /** Victim policy of the dynamic GPU tier. */
    cache::PolicyKind policy = cache::PolicyKind::Lru;
    /** GPU-tier capacity as a fraction of each table, in (0, 1]. */
    double cache_fraction = 0.05;

    /** Why this config is invalid, or "" (ArrivalConfig contract). */
    std::string validationError() const;
};

/** Two-tier online inference server over the trace's request stream. */
class ServingSystem : public System
{
  public:
    ServingSystem(const ModelConfig &model,
                  const sim::HardwareConfig &hardware,
                  const ServeOptions &options);

    /**
     * Serve (warmup + iterations) * batch_size requests; the first
     * warmup * batch_size warm the GPU tier and the server without
     * being measured. Deterministic per (model, options, seed).
     */
    RunResult simulate(const data::TraceDataset &dataset,
                       const BatchStats &stats, uint64_t iterations,
                       uint64_t warmup = 0) const override;

    std::string name() const override { return "Serving"; }

  private:
    ServeOptions options_;
    uint64_t cached_rows_ = 0;
};

} // namespace sp::sys

#endif // SP_SYS_SERVING_H
