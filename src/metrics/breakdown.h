/**
 * @file
 * Named per-iteration latency breakdowns.
 *
 * The paper's Fig. 5 and Fig. 12 report training time split by where
 * each phase executes; every system model emits an IterationBreakdown
 * with its own stage names ("CPU embedding forward", "Plan", ...).
 */

#ifndef SP_METRICS_BREAKDOWN_H
#define SP_METRICS_BREAKDOWN_H

#include <string>
#include <vector>

namespace sp::metrics
{

/** One named component of an iteration's latency. */
struct StageTime
{
    std::string name;
    double seconds = 0.0;
};

/** Latency of one training iteration, split into named stages. */
class IterationBreakdown
{
  public:
    IterationBreakdown() = default;

    /** Append a stage (names may repeat; get() sums them). */
    void add(const std::string &name, double seconds);

    /** Sum of seconds across stages named `name` (0 when absent). */
    double get(const std::string &name) const;

    /** Sum of all stages. */
    double total() const;

    const std::vector<StageTime> &stages() const { return stages_; }

  private:
    std::vector<StageTime> stages_;
};

} // namespace sp::metrics

#endif // SP_METRICS_BREAKDOWN_H
