/** @file HoldMask sliding-window semantics tests. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/hold_mask.h"

namespace sp::core
{
namespace
{

TEST(HoldMask, Geometry)
{
    HoldMask mask(10, 3, 2);
    EXPECT_EQ(mask.numSlots(), 10u);
    EXPECT_EQ(mask.pastWindow(), 3u);
    EXPECT_EQ(mask.futureWindow(), 2u);
    EXPECT_EQ(mask.widthBits(), 6u); // the paper's 6-wide window
}

TEST(HoldMask, HugeWindowsCannotWrapPastTheWidthCheck)
{
    // past + 1 + future wraps to 2 and 0 bits in 32-bit arithmetic;
    // both must still be refused before any mark shifts by past.
    EXPECT_THROW(HoldMask(8, 4294967295u, 2), FatalError);
    EXPECT_THROW(HoldMask(8, 4294967294u, 1), FatalError);
    EXPECT_THROW(HoldMask(8, 12, 4), FatalError); // 17 bits
    EXPECT_EQ(HoldMask(8, 12, 3).widthBits(), 16u);
}

TEST(HoldMask, InitiallyNothingHeld)
{
    HoldMask mask(8, 3, 2);
    for (uint32_t s = 0; s < 8; ++s)
        EXPECT_FALSE(mask.isHeld(s));
    EXPECT_EQ(mask.heldCount(), 0u);
}

TEST(HoldMask, CurrentMarkSurvivesPastWindowAdvances)
{
    HoldMask mask(4, 3, 2);
    mask.markCurrent(1);
    // Visible now and for past_window more advances.
    EXPECT_TRUE(mask.isHeld(1));
    for (int i = 0; i < 3; ++i) {
        mask.advance();
        EXPECT_TRUE(mask.isHeld(1)) << "advance " << i;
    }
    mask.advance();
    EXPECT_FALSE(mask.isHeld(1));
}

TEST(HoldMask, ZeroPastWindowExpiresImmediately)
{
    HoldMask mask(4, 0, 0);
    mask.markCurrent(2);
    EXPECT_TRUE(mask.isHeld(2));
    mask.advance();
    EXPECT_FALSE(mask.isHeld(2));
}

TEST(HoldMask, FutureMarkMaturesIntoCurrentWindow)
{
    HoldMask mask(4, 3, 2);
    mask.markFuture(0, 2);
    EXPECT_TRUE(mask.isHeld(0));
    // A distance-2 future mark lives 2 (to become current) + 3 (past
    // window) advances: 5 total.
    for (int i = 0; i < 5; ++i) {
        mask.advance();
        EXPECT_TRUE(mask.isHeld(0)) << "advance " << i;
    }
    mask.advance();
    EXPECT_FALSE(mask.isHeld(0));
}

TEST(HoldMask, MarksAccumulateAcrossBatches)
{
    HoldMask mask(4, 2, 0);
    mask.markCurrent(3);
    mask.advance();
    mask.markCurrent(3); // refreshed by a second batch
    // Expiry now counts from the refresh.
    mask.advance();
    mask.advance();
    EXPECT_TRUE(mask.isHeld(3));
    mask.advance();
    EXPECT_FALSE(mask.isHeld(3));
}

TEST(HoldMask, SlotsIndependent)
{
    HoldMask mask(4, 2, 1);
    mask.markCurrent(0);
    mask.markFuture(2, 1);
    EXPECT_TRUE(mask.isHeld(0));
    EXPECT_FALSE(mask.isHeld(1));
    EXPECT_TRUE(mask.isHeld(2));
    EXPECT_EQ(mask.heldCount(), 2u);
}

TEST(HoldMask, MarkIsIdempotent)
{
    HoldMask mask(4, 2, 0);
    mask.markCurrent(1);
    const uint16_t bits = mask.bits(1);
    mask.markCurrent(1);
    EXPECT_EQ(mask.bits(1), bits);
}

TEST(HoldMask, PaperWindowBitLayout)
{
    // Paper defaults: 3 past + 1 current + 2 future. Current marks
    // land at bit 3, future distance-1 at bit 4, distance-2 at bit 5.
    HoldMask mask(4, 3, 2);
    mask.markCurrent(0);
    EXPECT_EQ(mask.bits(0), 1u << 3);
    mask.markFuture(1, 1);
    EXPECT_EQ(mask.bits(1), 1u << 4);
    mask.markFuture(2, 2);
    EXPECT_EQ(mask.bits(2), 1u << 5);
}

TEST(HoldMask, FutureDistanceValidated)
{
    HoldMask mask(4, 3, 2);
    EXPECT_THROW(mask.markFuture(0, 0), PanicError);
    EXPECT_THROW(mask.markFuture(0, 3), PanicError);
}

TEST(HoldMask, SlotRangeValidated)
{
    HoldMask mask(4, 3, 2);
    EXPECT_THROW(mask.markCurrent(4), PanicError);
    EXPECT_THROW(mask.markFuture(5, 1), PanicError);
}

TEST(HoldMask, OversizedWindowFatal)
{
    EXPECT_THROW(HoldMask(4, 12, 8), FatalError);
}

TEST(HoldMask, ZeroSlotsFatal)
{
    EXPECT_THROW(HoldMask(0, 3, 2), FatalError);
}

} // namespace
} // namespace sp::core
