/**
 * @file
 * The [Plan] step and the per-table [Plan] stream.
 *
 * planTableBatch() is the one [Plan] step: it hands a batch's IDs to
 * its table's controller with the future window the controller's
 * config asks for. The functional trainer, the Section VI-D overhead
 * figure and planTableStream() all plan through it.
 *
 * Each table has its own controller, and table t's plans depend only
 * on table t's earlier plans. So a table streams through every batch
 * in order on one pool task, with no barrier joining the tables
 * between batches. The outcomes land in one batch-major buffer --
 * batch i, table t at i * num_tables + t -- and only table t's stream
 * writes column t, so the buffer is bit-identical to a serial,
 * batch-major loop.
 */

#ifndef SP_SYS_PLAN_FANOUT_H
#define SP_SYS_PLAN_FANOUT_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "data/dataset.h"

namespace sp::sys
{

/** One table's plan outcome for a single batch. */
struct TablePlanOutcome
{
    uint64_t fills = 0;
    uint64_t evicts = 0;
    uint64_t hits = 0;
    uint64_t ids = 0;
};

/**
 * Plan batch `index` of table `table` on `controller`, with the
 * table's IDs of the next future_window batches that exist (the
 * controller's window, nearest first) as its future window. `futures`
 * is the caller's scratch, cleared and refilled here: reusing it keeps
 * a stream from allocating per plan. Returns controller.plan()'s
 * result.
 */
const core::PlanResult &
planTableBatch(core::ScratchPipeController &controller,
               const data::TraceDataset &dataset, uint64_t index,
               size_t table, std::vector<std::span<const uint64_t>> &futures);

/**
 * Plan batches 0 .. outcomes.size() / num_tables - 1 of table `table`
 * on `controller` in batch order, each through planTableBatch with one
 * reused futures vector, and write batch i's outcome to
 * outcomes[i * num_tables + table].
 */
void planTableStream(core::ScratchPipeController &controller,
                     const data::TraceDataset &dataset, size_t table,
                     size_t num_tables,
                     std::span<TablePlanOutcome> outcomes);

/**
 * The stream over caller-owned controllers. It stays only because the
 * perfbench driver calls it, and goes with ROADMAP item 1.
 */
class PlanFanout
{
  public:
    /** `future_window` is unused: each controller's config carries
     *  its window. */
    PlanFanout(size_t num_tables, uint32_t /*future_window*/)
        : num_tables_(num_tables)
    {
    }

    /**
     * Stream every table through batches 0..num_batches-1 on the
     * pool (planTableStream), then call consume(i, outcomes) for each
     * batch in order with that batch's per-table outcomes. `overlap`
     * is ignored: there is no batch pipeline left to overlap, and the
     * parameter goes with ROADMAP item 1.
     */
    template <typename ConsumeFn>
    void
    forEachBatch(std::vector<core::ScratchPipeController> &controllers,
                 const data::TraceDataset &dataset, uint64_t num_batches,
                 bool /*overlap*/, ConsumeFn &&consume)
    {
        panicIf(controllers.size() != num_tables_, "PlanFanout over ",
                num_tables_, " tables given ", controllers.size(),
                " controllers");
        std::vector<TablePlanOutcome> outcomes(num_batches * num_tables_);
        common::parallelFor(num_tables_, [&](size_t t) {
            planTableStream(controllers[t], dataset, t, num_tables_,
                            outcomes);
        });
        for (uint64_t i = 0; i < num_batches; ++i)
            consume(i, std::span<const TablePlanOutcome>(outcomes).subspan(
                           i * num_tables_, num_tables_));
    }

  private:
    size_t num_tables_;
};

} // namespace sp::sys

#endif // SP_SYS_PLAN_FANOUT_H
