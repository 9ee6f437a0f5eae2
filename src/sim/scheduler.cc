#include "sim/scheduler.hh"

#include <bit>

namespace tango::sim {

void
WarpScheduler::reset(uint32_t num_slots)
{
    n_ = num_slots;
    current_ = -1;
    next_ = 0;
    active_ = n_ >= tlvActiveSetSize ? (1ull << tlvActiveSetSize) - 1
                                     : (1ull << n_) - 1;
}

uint32_t
WarpScheduler::rotate(uint64_t m) const
{
    const uint64_t ahead = m & (~0ull << next_);
    return static_cast<uint32_t>(std::countr_zero(ahead ? ahead : m));
}

int
WarpScheduler::pick(uint64_t issuable, const std::vector<uint64_t> &age)
{
    // Oldest set bit of m (ascending scan, first minimum wins), or -1.
    const auto oldest = [&](uint64_t m) {
        int best = -1;
        for (; m; m &= m - 1) {
            const int i = std::countr_zero(m);
            if (best < 0 || age[i] < age[best])
                best = i;
        }
        return best;
    };

    switch (policy_) {
      case SchedPolicy::GTO:
        // Greedy: stay on the current warp while it can issue.
        if (current_ < 0 || !((issuable >> current_) & 1))
            current_ = oldest(issuable);
        return current_;
      case SchedPolicy::LRR:
        if (!issuable)
            return -1;
        break;
      case SchedPolicy::TLV: {
        // Round-robin over the active set while any of it can issue.
        if (issuable & active_) {
            issuable &= active_;
            break;
        }
        // Active set fully stalled: promote the oldest issuable pending
        // warp, demoting the first active one at or after the pointer
        // when the set is full, and issue from it.
        const int promote = oldest(issuable);
        if (promote < 0)
            return -1;
        if (std::popcount(active_) >= int(tlvActiveSetSize))
            active_ &= ~(1ull << rotate(active_));
        active_ |= 1ull << promote;
        next_ = (static_cast<uint32_t>(promote) + 1) % n_;
        return promote;
      }
    }
    const uint32_t slot = rotate(issuable);
    next_ = (slot + 1) % n_;
    return static_cast<int>(slot);
}

void
WarpScheduler::notifyRetired(uint32_t slot)
{
    if (current_ == static_cast<int>(slot))
        current_ = -1;
    active_ &= ~(1ull << slot);
}

} // namespace tango::sim
