/**
 * @file
 * The front end of SmCore::run: a helper thread that executes a launch's
 * sampled CTAs functionally, ahead of the cycle loop, and hands each
 * warp's executed instructions over as records (sim/record.hh) through
 * one bounded ring per warp.
 *
 * The front end runs a window of CTAs at a time: every CTA the cycle loop
 * keeps resident plus a bounded lookahead.  Within a CTA, warps run
 * round-robin between barriers (CtaExec); a warp's visit also ends when
 * its ring is full or its visit budget is spent.  CTAs of a launch are
 * independent and warps share data only across barriers, so values and
 * streams equal those of executing each instruction at issue time.
 *
 * Waits block (std::atomic wait/notify) rather than spin.  The cycle loop
 * never needs a record the front end cannot produce: it takes a warp's
 * next record only to issue it, and a post-barrier instruction issues
 * only after every warp of its CTA has consumed its Bar record, by which
 * time the front end has released that barrier.  DESIGN.md "Front end
 * and cycle loop" has the full argument.
 */

#ifndef TANGO_SIM_FRONTEND_HH
#define TANGO_SIM_FRONTEND_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/interp.hh"
#include "sim/record.hh"

namespace tango::sim {

/** Most CTAs one front end executes at once. */
inline constexpr uint32_t kMaxWindowCtas = 64;

class FrontEnd
{
  public:
    /** What one launch's front end executes.  Everything pointed at must
     *  outlive the job (SmCore::run owns it for the launch). */
    struct Job
    {
        const KernelLaunch *launch = nullptr;
        const DecodedProgram *decoded = nullptr;
        const std::vector<uint64_t> *ctaIds = nullptr;
        const std::vector<uint32_t> *warpIds = nullptr;
        DeviceMemory *gmem = nullptr;
        /** CTAs executing at once: at least the cycle loop's resident
         *  CTAs, at most kMaxWindowCtas. */
        uint32_t window = 1;
        /** Fold stream digests into the retiring records. */
        bool hash = false;
    };

    FrontEnd() = default;
    /** Stops and joins the helper thread. */
    ~FrontEnd();
    FrontEnd(const FrontEnd &) = delete;
    FrontEnd &operator=(const FrontEnd &) = delete;

    /** Hand @p job to the helper thread (started on first use). */
    void start(const Job &job);

    /** Wait until the helper has finished the job, first telling it to
     *  stop when @p cancel.  Never throws. */
    void finish(bool cancel);

    /** @return the window slot of the job's @p order-th CTA, waiting
     *  until the front end has started it.
     *  @throws what the helper thread threw. */
    uint32_t ctaSlot(uint32_t order);

    /** @return the ring of warp @p warp of the CTA in window slot
     *  @p slot. */
    RecordRing &ring(uint32_t slot, uint32_t warp)
    {
        return *rings_[size_t(slot) * warpsPerCta_ + warp];
    }

    /** Wait until @p ring holds words past @p pos.
     *  @return the ring's published write position.
     *  @throws what the helper thread threw. */
    uint32_t awaitRecords(RecordRing &ring, uint32_t pos);

    /** The cycle loop released ring words: wake the front end if it
     *  waits for room. */
    void consumed() { bump(consumed_); }

    /** The cycle loop retired every warp of the CTA in window slot
     *  @p slot: the front end may reuse the slot and its rings. */
    void releaseCta(uint32_t slot);

  private:
    /** A CTA the front end executes, with its warps' ring cursors. */
    struct WindowSlot
    {
        CtaExec cta;
        std::vector<RingWriter> writers;
    };

    static void bump(std::atomic<uint32_t> &epoch)
    {
        epoch.fetch_add(1, std::memory_order_release);
        epoch.notify_one();
    }

    void serve();    ///< the helper thread's body
    void runJob();   ///< execute job_, filling the rings
    void rethrowIfFailed();

    std::thread thread_;
    std::mutex mu_;
    std::condition_variable jobCv_;   ///< a job arrived (or quit)
    std::condition_variable idleCv_;  ///< the helper went idle
    bool haveJob_ = false;
    bool idle_ = true;
    bool quit_ = false;
    Job job_;
    std::exception_ptr error_;

    std::vector<std::unique_ptr<RecordRing>> rings_;
    uint32_t warpsPerCta_ = 0;
    /** Window slot of CTA `order`, at [order % window] (read by the
     *  cycle loop after `started_` covers the order). */
    std::vector<uint32_t> slotOf_;
    /** Helper-thread state of the window. */
    std::vector<WindowSlot> window_;

    /** Bumped by the front end on every publish, start and failure. */
    alignas(64) std::atomic<uint32_t> produced_{0};
    /** Bumped by the cycle loop when it releases room or a CTA. */
    alignas(64) std::atomic<uint32_t> consumed_{0};
    std::atomic<uint32_t> started_{0};  ///< CTAs the front end started
    std::atomic<uint64_t> freed_{0};    ///< slots released, not yet reused
    std::atomic<bool> cancel_{false};
    std::atomic<bool> failed_{false};
};

/** The cycle loop's cursor into one warp's ring. */
struct RingReader
{
    RecordRing *ring = nullptr;
    uint32_t pos = 0;        ///< start of the next record
    uint32_t published = 0;  ///< last write position loaded

    void reset(RecordRing &r)
    {
        ring = &r;
        pos = published = r.read.load(std::memory_order_relaxed);
    }

    /** @return the next record, waiting for @p fe to produce it. */
    const uint32_t *next(FrontEnd &fe)
    {
        if (pos == published)
            published = fe.awaitRecords(*ring, pos);
        const uint32_t *r = &ring->words[pos & kRingMask];
        if (r[0] == rec::kPad) {
            // A pad is published together with the record after it.
            pos = (pos | kRingMask) + 1;
            r = ring->words;
        }
        return r;
    }

    /** Release the record next() returned.  @return its length. */
    uint32_t release(const uint32_t *r)
    {
        const uint32_t n = rec::words(r);
        pos += n;
        ring->read.store(pos, std::memory_order_release);
        return n;
    }
};

} // namespace tango::sim

#endif // TANGO_SIM_FRONTEND_HH
