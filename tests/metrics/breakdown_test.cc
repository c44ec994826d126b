/** @file IterationBreakdown accounting tests. */

#include <gtest/gtest.h>

#include "metrics/breakdown.h"

namespace sp::metrics
{
namespace
{

TEST(Breakdown, AddAndTotal)
{
    IterationBreakdown b;
    b.add("fwd", 0.02);
    b.add("bwd", 0.03);
    b.add("gpu", 0.01);
    EXPECT_DOUBLE_EQ(b.total(), 0.06);
    EXPECT_EQ(b.stages().size(), 3u);
}

TEST(Breakdown, GetSumsRepeatedNames)
{
    IterationBreakdown b;
    b.add("pcie", 0.01);
    b.add("gpu", 0.02);
    b.add("pcie", 0.005);
    EXPECT_DOUBLE_EQ(b.get("pcie"), 0.015);
    EXPECT_DOUBLE_EQ(b.get("gpu"), 0.02);
    EXPECT_DOUBLE_EQ(b.get("absent"), 0.0);
}

} // namespace
} // namespace sp::metrics
