#include "metrics/breakdown.h"

namespace sp::metrics
{

void
IterationBreakdown::add(const std::string &name, double seconds)
{
    stages_.push_back(StageTime{name, seconds});
}

double
IterationBreakdown::get(const std::string &name) const
{
    double total = 0.0;
    for (const auto &stage : stages_) {
        if (stage.name == name)
            total += stage.seconds;
    }
    return total;
}

double
IterationBreakdown::total() const
{
    double total = 0.0;
    for (const auto &stage : stages_)
        total += stage.seconds;
    return total;
}

} // namespace sp::metrics
