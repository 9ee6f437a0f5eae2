/**
 * @file
 * Warp scheduling policies: GTO, LRR and TLV (paper Section IV-F).
 *
 * Each SM cycle the core presents the set of issuable warp slots as a
 * bit mask (bit i = slot i); the scheduler picks one.  GTO keeps issuing
 * from the same warp until it stalls and then falls back to the oldest
 * warp; LRR rotates; TLV keeps a small active set and swaps out warps
 * that issue long-latency operations.
 */

#ifndef TANGO_SIM_SCHEDULER_HH
#define TANGO_SIM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace tango::sim {

/** The warp scheduler of one SM, for any SchedPolicy. */
class WarpScheduler
{
  public:
    /** TLV's active-set size. */
    static constexpr uint32_t tlvActiveSetSize = 8;

    explicit WarpScheduler(SchedPolicy policy) : policy_(policy) {}

    /** Resize bookkeeping for @p num_slots (<= kMaxWarpSlots) slots. */
    void reset(uint32_t num_slots);

    /**
     * Pick a warp to issue.
     * @param issuable bit i set iff slot i can issue this cycle.
     * @param age      age[i] = arrival order of slot i (smaller = older).
     * @return slot index, or -1 if none is issuable.
     */
    int pick(uint64_t issuable, const std::vector<uint64_t> &age);

    /**
     * Inform the scheduler that no slot is issuable this cycle.  Has
     * exactly the state effect of pick(0, ...); the core calls it instead
     * of pick() when it already knows the answer.
     */
    void notifyNoneIssuable()
    {
        if (policy_ == SchedPolicy::GTO)
            current_ = -1;
    }

    /** Inform the scheduler a slot issued a long-latency (memory) op:
     *  TLV demotes it; promotion happens lazily in pick(). */
    void notifyLongLatency(uint32_t slot)
    {
        if (policy_ == SchedPolicy::TLV)
            active_ &= ~(1ull << slot);
    }

    /** Inform the scheduler a slot retired. */
    void notifyRetired(uint32_t slot);

  private:
    /** Round-robin from next_: the first set bit of @p m at or after
     *  next_, else the first set bit overall (m != 0). */
    uint32_t rotate(uint64_t m) const;

    SchedPolicy policy_;
    uint32_t n_ = 0;
    int current_ = -1;      ///< GTO's greedy target
    uint32_t next_ = 0;     ///< LRR/TLV round-robin pointer
    uint64_t active_ = 0;   ///< TLV's active set
};

} // namespace tango::sim

#endif // TANGO_SIM_SCHEDULER_HH
