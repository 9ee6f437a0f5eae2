/**
 * @file
 * Warp scheduler unit tests over issuable-slot masks: GTO greediness and
 * oldest-first fallback, LRR rotation and fairness, TLV active-set
 * management.
 */

#include <gtest/gtest.h>

#include "sim/scheduler.hh"

namespace tango::sim {
namespace {

/** @return the first @p n slots as an issuable mask. */
uint64_t
firstSlots(uint32_t n)
{
    return n >= 64 ? ~0ull : (1ull << n) - 1;
}

std::vector<uint64_t>
agesInOrder(uint32_t n)
{
    std::vector<uint64_t> a(n);
    for (uint32_t i = 0; i < n; i++)
        a[i] = i;
    return a;
}

TEST(Gto, StaysGreedyOnSameWarp)
{
    WarpScheduler s(SchedPolicy::GTO);
    s.reset(4);
    const uint64_t issuable = firstSlots(4);
    const auto ages = agesInOrder(4);
    const int first = s.pick(issuable, ages);
    for (int k = 0; k < 5; k++)
        EXPECT_EQ(s.pick(issuable, ages), first);
}

TEST(Gto, FallsBackToOldest)
{
    WarpScheduler s(SchedPolicy::GTO);
    s.reset(4);
    // Ages: slot 2 is oldest.
    std::vector<uint64_t> ages = {5, 7, 1, 9};
    uint64_t issuable = firstSlots(4);
    EXPECT_EQ(s.pick(issuable, ages), 2);
    // Current warp stalls: next-oldest issuable picked.
    issuable &= ~(1ull << 2);
    EXPECT_EQ(s.pick(issuable, ages), 0);
    // And it becomes the new greedy target.
    issuable |= 1ull << 2;
    EXPECT_EQ(s.pick(issuable, ages), 0);
}

TEST(Gto, RetirementClearsGreedyTarget)
{
    WarpScheduler s(SchedPolicy::GTO);
    s.reset(3);
    std::vector<uint64_t> ages = {0, 1, 2};
    uint64_t issuable = firstSlots(3);
    EXPECT_EQ(s.pick(issuable, ages), 0);
    s.notifyRetired(0);
    issuable &= ~1ull;
    EXPECT_EQ(s.pick(issuable, ages), 1);
}

TEST(Lrr, RotatesThroughAllWarps)
{
    WarpScheduler s(SchedPolicy::LRR);
    s.reset(4);
    const uint64_t issuable = firstSlots(4);
    const auto ages = agesInOrder(4);
    std::vector<int> picks;
    for (int k = 0; k < 8; k++)
        picks.push_back(s.pick(issuable, ages));
    EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(Lrr, SkipsStalledWarps)
{
    WarpScheduler s(SchedPolicy::LRR);
    s.reset(4);
    const uint64_t issuable = 0b0101;   // slots 0 and 2
    const auto ages = agesInOrder(4);
    EXPECT_EQ(s.pick(issuable, ages), 0);
    EXPECT_EQ(s.pick(issuable, ages), 2);
    EXPECT_EQ(s.pick(issuable, ages), 0);
}

TEST(Lrr, NoneIssuable)
{
    WarpScheduler s(SchedPolicy::LRR);
    s.reset(3);
    EXPECT_EQ(s.pick(0, agesInOrder(3)), -1);
}

TEST(Tlv, PrefersActiveSet)
{
    WarpScheduler s(SchedPolicy::TLV);
    s.reset(16);   // active set = first 8
    const uint64_t issuable = firstSlots(16);
    const auto ages = agesInOrder(16);
    // All picks stay within the initial active set.
    for (int k = 0; k < 16; k++)
        EXPECT_LT(s.pick(issuable, ages), 8);
}

TEST(Tlv, PromotesWhenActiveSetStalls)
{
    WarpScheduler s(SchedPolicy::TLV);
    s.reset(16);
    const uint64_t issuable = firstSlots(16) & ~firstSlots(8);
    const auto ages = agesInOrder(16);
    const int p = s.pick(issuable, ages);
    EXPECT_GE(p, 8);
    EXPECT_EQ(p, 8);   // oldest pending
}

TEST(Tlv, DemotionOnLongLatency)
{
    WarpScheduler s(SchedPolicy::TLV);
    s.reset(4);
    const uint64_t issuable = firstSlots(4);
    const auto ages = agesInOrder(4);
    const int first = s.pick(issuable, ages);
    s.notifyLongLatency(static_cast<uint32_t>(first));
    // The demoted warp is not picked while others are issuable.
    for (int k = 0; k < 3; k++)
        EXPECT_NE(s.pick(issuable, ages), first);
}

TEST(Tlv, FullActiveSetDemotesFromThePointer)
{
    WarpScheduler s(SchedPolicy::TLV);
    s.reset(16);   // active set = slots 0..7
    const auto ages = agesInOrder(16);
    // Only pending slot 12 can issue: it is promoted and slot 0, the
    // first active slot at or after the pointer, is demoted.
    EXPECT_EQ(s.pick(1ull << 12, ages), 12);
    EXPECT_EQ(s.pick((1ull << 12) | 1ull, ages), 12);
    // Slot 0 is pending now: promoting it demotes slot 1 (the pointer,
    // at 13, wraps past the last active slot).
    EXPECT_EQ(s.pick(1ull, ages), 0);
    EXPECT_EQ(s.pick(0b11, ages), 0);
}

TEST(AllPolicies, FullSixtyFourSlotMask)
{
    const auto ages = agesInOrder(64);
    for (auto pol : {SchedPolicy::GTO, SchedPolicy::LRR,
                     SchedPolicy::TLV}) {
        WarpScheduler s(pol);
        s.reset(64);
        EXPECT_EQ(s.pick(1ull << 63, ages), 63) << schedName(pol);
        EXPECT_EQ(s.pick(0, ages), -1) << schedName(pol);
    }
    // LRR wraps from slot 63 back to slot 0.
    WarpScheduler lrr(SchedPolicy::LRR);
    lrr.reset(64);
    EXPECT_EQ(lrr.pick(1ull << 63, ages), 63);
    EXPECT_EQ(lrr.pick(firstSlots(64), ages), 0);
}

TEST(AllPolicies, EmptyAndSingleSlot)
{
    for (auto pol : {SchedPolicy::GTO, SchedPolicy::LRR,
                     SchedPolicy::TLV}) {
        WarpScheduler s(pol);
        s.reset(1);
        EXPECT_EQ(s.pick(1, agesInOrder(1)), 0) << schedName(pol);
        EXPECT_EQ(s.pick(0, agesInOrder(1)), -1) << schedName(pol);
    }
}

} // namespace
} // namespace tango::sim
