#include "sim/frontend.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace tango::sim {

namespace {

/** Ring words one visit of a warp may write: warps of a window take turns
 *  in short visits, so the cycle loop gets every warp's first records
 *  early in a launch. */
constexpr uint32_t kVisitWords = kRingWords / 4;

} // namespace

FrontEnd::~FrontEnd()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        quit_ = true;
    }
    jobCv_.notify_one();
    thread_.join();
}

void
FrontEnd::start(const Job &job)
{
    TANGO_ASSERT(job.window >= 1 && job.window <= kMaxWindowCtas,
                 "front-end window out of range");
    warpsPerCta_ = static_cast<uint32_t>(job.warpIds->size());
    const size_t nRings = size_t(job.window) * warpsPerCta_;
    while (rings_.size() < nRings)
        rings_.emplace_back(new RecordRing);   // storage left unwritten
    for (size_t i = 0; i < nRings; i++) {
        rings_[i]->write.store(0, std::memory_order_relaxed);
        rings_[i]->read.store(0, std::memory_order_relaxed);
    }
    slotOf_.assign(job.window, 0);
    started_.store(0, std::memory_order_relaxed);
    freed_.store(0, std::memory_order_relaxed);
    cancel_.store(false, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        job_ = job;
        haveJob_ = true;
        idle_ = false;
    }
    if (!thread_.joinable())
        thread_ = std::thread([this] { serve(); });
    else
        jobCv_.notify_one();
}

void
FrontEnd::finish(bool cancel)
{
    if (cancel) {
        cancel_.store(true, std::memory_order_release);
        bump(consumed_);
    }
    std::unique_lock<std::mutex> lk(mu_);
    idleCv_.wait(lk, [this] { return idle_; });
}

void
FrontEnd::serve()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        jobCv_.wait(lk, [this] { return haveJob_ || quit_; });
        if (quit_)
            return;
        haveJob_ = false;
        lk.unlock();
        try {
            runJob();
        } catch (...) {
            error_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
            bump(produced_);
        }
        lk.lock();
        idle_ = true;
        idleCv_.notify_all();
    }
}

void
FrontEnd::rethrowIfFailed()
{
    if (failed_.load(std::memory_order_acquire))
        std::rethrow_exception(error_);
}

uint32_t
FrontEnd::ctaSlot(uint32_t order)
{
    for (;;) {
        const uint32_t epoch = produced_.load(std::memory_order_acquire);
        if (started_.load(std::memory_order_acquire) > order)
            return slotOf_[order % slotOf_.size()];
        rethrowIfFailed();
        produced_.wait(epoch, std::memory_order_acquire);
    }
}

uint32_t
FrontEnd::awaitRecords(RecordRing &ring, uint32_t pos)
{
    // What this side released since its last bump may be the room the
    // front end waits for.
    bump(consumed_);
    for (;;) {
        const uint32_t epoch = produced_.load(std::memory_order_acquire);
        const uint32_t w = ring.write.load(std::memory_order_acquire);
        if (w != pos)
            return w;
        rethrowIfFailed();
        produced_.wait(epoch, std::memory_order_acquire);
    }
}

void
FrontEnd::releaseCta(uint32_t slot)
{
    freed_.fetch_or(1ull << slot, std::memory_order_release);
    bump(consumed_);
}

void
FrontEnd::runJob()
{
    const Job job = job_;
    const uint32_t slots = job.window;
    const size_t nCtas = job.ctaIds->size();
    window_.resize(slots);
    uint64_t freeSlots = slots == 64 ? ~0ull : (1ull << slots) - 1;
    std::vector<uint32_t> order;   // occupied slots, oldest CTA first
    size_t next = 0;

    for (;;) {
        if (cancel_.load(std::memory_order_acquire))
            return;
        const uint32_t epoch = consumed_.load(std::memory_order_acquire);
        if (const uint64_t freed =
                freed_.exchange(0, std::memory_order_acq_rel)) {
            freeSlots |= freed;
            std::erase_if(order,
                          [freed](uint32_t s) { return (freed >> s) & 1; });
        }

        // Start CTAs, in launch order, in every free slot.
        bool progressed = false;
        if (next < nCtas && freeSlots != 0) {
            while (next < nCtas && freeSlots != 0) {
                const auto s = static_cast<uint32_t>(
                    std::countr_zero(freeSlots));
                freeSlots &= freeSlots - 1;
                WindowSlot &ws = window_[s];
                ws.cta.start(*job.launch, *job.decoded, (*job.ctaIds)[next],
                             *job.warpIds, *job.gmem, job.hash);
                ws.writers.resize(warpsPerCta_);
                for (uint32_t w = 0; w < warpsPerCta_; w++)
                    ws.writers[w].reset(&ring(s, w));
                slotOf_[next % slots] = s;
                order.push_back(s);
                next++;
            }
            started_.store(static_cast<uint32_t>(next),
                           std::memory_order_release);
            bump(produced_);
            progressed = true;
        }

        // One visit to every runnable warp of the window.
        bool allDone = true;
        for (uint32_t s : order) {
            WindowSlot &ws = window_[s];
            if (ws.cta.done())
                continue;
            progressed |= ws.cta.sweep([&](size_t i, WarpExec &we) {
                RingWriter &out = ws.writers[i];
                out.setBudget(kVisitWords);
                const SegEnd end = we.runRecorded(out);
                if (out.publish()) {
                    bump(produced_);
                    progressed = true;
                }
                return end;
            });
            allDone &= ws.cta.done();
        }
        if (next == nCtas && allDone)
            return;
        if (!progressed)
            consumed_.wait(epoch, std::memory_order_acquire);
    }
}

} // namespace tango::sim
