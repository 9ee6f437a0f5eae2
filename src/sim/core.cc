#include "sim/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "sim/digest.hh"

namespace tango::sim {

namespace {

/** Sentinel "will not become ready by itself" cycle (barrier waits). */
constexpr uint64_t farFuture = ~0ULL;

/** Extra latency charged when an MSHR file is full (back-pressure). */
constexpr uint64_t throttlePenalty = 25;

/** Cycles covered by SmCore::run's wake-up wheel (a power of two). */
constexpr uint64_t wheelCycles = 64;

} // namespace

SmCore::SmCore(const GpuConfig &cfg, DeviceMemory &gmem, Cache &l2,
               Dram &dram)
    : cfg_(cfg), gmem_(gmem), l2_(l2), dram_(dram), sched_(cfg.scheduler)
{
    CacheConfig l1cfg;
    l1cfg.sizeBytes = cfg.l1dBytes;
    l1cfg.assoc = cfg.l1dAssoc;
    l1cfg.lineBytes = cfg.lineBytes;
    l1cfg.mshrs = cfg.l1dMshrs;
    l1cfg.writeAllocate = false;
    l1d_ = std::make_unique<Cache>(l1cfg);

    CacheConfig ccfg;
    ccfg.sizeBytes = cfg.constCacheBytes;
    ccfg.assoc = 4;
    ccfg.lineBytes = 64;
    ccfg.mshrs = 8;
    ccfg.writeAllocate = false;
    constCache_ = std::make_unique<Cache>(ccfg);

    trace_ = trace::threadSink();
    l1d_->setTrace(trace_, trace::CacheLevel::L1D);
    constCache_->setTrace(trace_, trace::CacheLevel::Const);
}

void
SmCore::launchCta(uint32_t warps)
{
    // Find a free CTA slot.
    uint32_t slot = 0;
    for (; slot < ctas_.size(); slot++) {
        if (!ctas_[slot].active)
            break;
    }
    TANGO_ASSERT(slot < ctas_.size(), "no free CTA slot");
    CtaSlot &cta = ctas_[slot];
    cta.active = true;
    freeCtas_--;
    cta.barrierArrived = 0;
    cta.warpMask = 0;

    const uint32_t ctaOrder = ctaOrderCounter_++;
    cta.window = fe_->ctaSlot(ctaOrder);
    for (uint32_t order = 0; order < warps; order++) {
        // The lowest free slot.
        const auto ws = static_cast<uint32_t>(std::countr_zero(~active_));
        TANGO_ASSERT(ws < warps_.size(), "no free warp slot");
        const uint64_t bit = 1ull << ws;
        WarpSlot &slotRef = warps_[ws];
        slotRef.records.reset(fe_->ring(cta.window, order));
        slotRef.pc = 0;
        std::fill_n(scoreboard_.begin() + size_t(ws) * numRegs_, numRegs_,
                    0);
        slotRef.fetchReady = 0;
        slotRef.depReady = 0;   // a fresh scoreboard holds no writes
        slotRef.cta = slot;
        slotRef.atBarrier = false;
        ages_[ws] = warpAgeCounter_++;
        slotRef.nextDec = &(*decoded_)[0];
        slotRef.l1Hint = Cache::WayHint{};
        slotRef.l2Hint = Cache::WayHint{};
        slotRef.constHint = Cache::WayHint{};
        slotRef.hashSlot = ctaOrder * warps + order;
        if (profiling_)
            slotPc_[ws] = 0;
        // Not chargeable until its first evaluation, which it gets next
        // cycle (dirty).
        why_[ws] = Stall::NumStalls;
        issuable_ &= ~bit;
        active_ |= bit;
        dirty_ |= bit;
        cta.warpMask |= bit;
    }
    liveWarpTotal_ += warps;
    cta.liveWarps = warps;
}

bool
SmCore::issuableSlot(uint32_t slot, uint64_t now, Stall &why,
                     uint64_t &earliest) const
{
    const WarpSlot &w = warps_[slot];
    earliest = farFuture;
    if (w.atBarrier) {
        why = Stall::Sync;
        return false;   // released by another warp's issue
    }
    if (w.fetchReady > now) {
        why = Stall::InstFetch;
        earliest = w.fetchReady;
        return false;
    }
    if (w.depReady > now) {
        why = w.depStall;
        earliest = w.depReady;
        return false;
    }
    return unitsFree(*w.nextDec, now, why, earliest);
}

void
SmCore::scanScoreboard(uint32_t slot)
{
    // All sources and the destination of the next instruction must be
    // ready.  The first register with the latest pending write names the
    // stall.
    WarpSlot &w = warps_[slot];
    const DecodedInstr &d = *w.nextDec;
    const uint64_t *sb = scoreboard_.data() + size_t(slot) * numRegs_;
    uint64_t depReady = 0;
    uint64_t depKind = 0;
    const auto wait = [&](uint8_t r) {
        const uint64_t ready = sb[r] >> 2;
        const bool later = ready > depReady;
        depKind = later ? sb[r] & 3 : depKind;
        depReady = later ? ready : depReady;
    };
    for (uint32_t i = 0; i < d.numSrcRegs; i++)
        wait(d.srcRegs[i]);
    if (d.writesReg)
        wait(d.dst);
    w.depReady = depReady;
    w.depStall = depKind == 1 ? Stall::MemoryDependency
               : depKind == 2 ? Stall::ConstantMemoryDependency
                              : Stall::ExecDependency;
}

bool
SmCore::unitsFree(const DecodedInstr &d, uint64_t now, Stall &why,
                  uint64_t &earliest) const
{
    if (d.isLdSt && ldstThrottleUntil_ > now) {
        why = Stall::MemoryThrottle;
        earliest = ldstThrottleUntil_;
        return false;
    }
    if (unitBusy_[static_cast<size_t>(d.unit)] > now) {
        why = Stall::PipeBusy;
        earliest = unitBusy_[static_cast<size_t>(d.unit)];
        return false;
    }
    why = Stall::NotSelected;
    earliest = now;
    return true;
}

uint64_t
SmCore::memoryLatency(const DecodedInstr &d, const uint32_t *record,
                      uint64_t now, WarpSlot &w)
{
    const bool write = d.op == Op::St;
    const uint32_t *addrs = rec::addrs(record);
    uint64_t maxLat = 1;

    auto l2Path = [&](uint32_t addr) -> uint64_t {
        raw_.noc += 2;
        raw_.l2++;
        const Cache::Result r = l2_.access(addr, write, now, &w.l2Hint);
        // The cache's own miss counter increments on every non-hit
        // (MSHR merges included), so charge on exactly that condition.
        if (profiling_ && !r.hit)
            pcL2Miss_[profPc_]++;
        if (r.hit || r.mshrMerged) {
            // A hit on an in-flight line waits for its fill.
            const uint64_t fill = r.fillCycle;
            return std::max<uint64_t>(cfg_.l2HitLatency,
                                      fill > now ? fill - now : 0);
        }
        uint64_t extra = 0;
        const bool haveMshr = l2_.mshrAvailable(addr, now);
        if (!haveMshr) {
            ldstThrottleUntil_ =
                std::max(ldstThrottleUntil_, now + throttlePenalty);
            extra = throttlePenalty;
        }
        raw_.mc++;
        raw_.dram++;
        if (profiling_)
            pcDram_[profPc_]++;
        const uint64_t avail = dram_.schedule(now) + cfg_.dramLatency;
        if (haveMshr)
            l2_.allocateMshr(addr, avail, now);
        return (avail - now) + cfg_.l2HitLatency / 4 + extra;
    };

    switch (d.space) {
      case Space::Global: {
        const uint32_t numSegments = rec::addrWords(record);
        raw_.globalMemInsts++;
        raw_.coalescedSegments += numSegments;
        for (uint32_t s = 0; s < numSegments; s++) {
            const uint32_t addr = addrs[s];
            uint64_t lat;
            if (!l1d_->bypassed()) {
                raw_.l1d++;
                const Cache::Result r =
                    l1d_->access(addr, write, now, &w.l1Hint);
                if (profiling_ && !r.hit)
                    pcL1dMiss_[profPc_]++;
                if (write) {
                    // Write-through, no-allocate: latency is the L1 pipe,
                    // but the line still traverses NOC/L2.
                    l2Path(addr);
                    lat = cfg_.l1HitLatency;
                } else if (r.hit || r.mshrMerged) {
                    const uint64_t fill = r.fillCycle;
                    lat = std::max<uint64_t>(
                        cfg_.l1HitLatency, fill > now ? fill - now : 0);
                } else {
                    uint64_t extra = 0;
                    const bool haveMshr = l1d_->mshrAvailable(addr, now);
                    if (!haveMshr) {
                        ldstThrottleUntil_ = std::max(
                            ldstThrottleUntil_, now + throttlePenalty);
                        extra = throttlePenalty;
                    }
                    lat = cfg_.l1HitLatency + l2Path(addr) + extra;
                    if (haveMshr)
                        l1d_->allocateMshr(addr, now + lat, now);
                }
            } else {
                lat = l2Path(addr) + 10;  // interconnect traversal
            }
            maxLat = std::max(maxLat, lat);
        }
        // Multiple segments serialize at the LDST unit.
        if (numSegments > 1)
            maxLat += numSegments - 1;
        break;
      }
      case Space::Shared: {
        const uint32_t ser = rec::sharedSerialization(record);
        raw_.shrd += ser;
        maxLat = cfg_.smemLatency + 2ull * (ser - 1);
        break;
      }
      case Space::Const: {
        const bool uniform = rec::constBroadcast(record);
        const uint32_t accesses = uniform ? 1 : 2;
        raw_.cc += accesses;
        // Model the constant cache with real tag state keyed on the
        // immediate-offset address of lane 0's access.
        const Cache::Result r =
            constCache_->access(addrs[0], false, now, &w.constHint);
        maxLat = r.hit ? cfg_.constHitLatency
                       : cfg_.constHitLatency + cfg_.l2HitLatency;
        if (!uniform)
            maxLat += cfg_.constHitLatency;
        break;
      }
      case Space::Param: {
        raw_.cc++;
        maxLat = cfg_.constHitLatency;
        break;
      }
    }
    return maxLat;
}

void
SmCore::windowAccum(double pj, uint64_t now)
{
    if (now >= windowStart_ + windowCycles) {
        const double seconds =
            windowCycles / (cfg_.coreClockGhz * 1e9);
        const double w = windowEnergyPj_ * 1e-12 / seconds;
        peakWindowDynW_ = std::max(peakWindowDynW_, w);
        // Jump the window to the current cycle (skipped windows are idle).
        windowStart_ = now - (now % windowCycles);
        windowEnergyPj_ = 0.0;
    }
    windowEnergyPj_ += pj;
}

void
SmCore::issue(uint32_t slot, uint64_t now)
{
    WarpSlot &w = warps_[slot];
    // nextDec points into the per-kernel DecodedProgram (stable storage);
    // the record adds what only execution knows.
    const DecodedInstr &d = *w.nextDec;
    const uint32_t *r = w.records.next(*fe_);
    const uint32_t ipc = w.pc;
    const bool warpDone = rec::retired(r);
    const uint32_t activeCount = rec::activeCount(r);
    const uint32_t numSegments = rec::addrWords(r);
    const uint32_t sharedSer = rec::sharedSerialization(r);
    const bool controlTransfer = rec::controlTransfer(r);
    if (hashing_ && warpDone)
        streamHashes_[w.hashSlot] = rec::digest(r);
    if (!warpDone) {
        w.pc = rec::nextPc(r);
        w.nextDec = &(*decoded_)[w.pc];
    }
    if (profiling_) {
        profPc_ = ipc;
        pcIssued_[ipc]++;
        slotPc_[slot] = warpDone ? 0 : w.pc;
    }
    const PowerParams &p = cfg_.power;

    // --- instruction accounting -----------------------------------------
    raw_.issued++;
    raw_.op[static_cast<size_t>(d.op)] += activeCount;
    if (d.type != DType::None && d.type != DType::Pred && activeCount > 0)
        raw_.dtype[static_cast<size_t>(d.type)] += activeCount;
    raw_.ic++;
    raw_.ib++;
    raw_.pipe++;
    const uint32_t rfOps = d.numSrcRegs + (d.writesReg ? 1 : 0);
    raw_.rfOperand += rfOps;

    double pj = p.icAccess + p.ibAccess + p.pipeIssue + rfOps * p.rfOperand;
    switch (d.unit) {
      case Unit::SP:
        raw_.sp++;
        pj += p.spOp;
        break;
      case Unit::FPU:
        raw_.fpu++;
        pj += p.fpuOp;
        break;
      case Unit::SFU:
        raw_.sfu++;
        pj += p.sfuOp;
        break;
      default:
        break;
    }

    // --- functional unit occupancy --------------------------------------
    uint64_t occ = 1;
    if (d.unit == Unit::SFU)
        occ = 4;
    if (d.unit == Unit::LDST) {
        occ = 1;
        if (numSegments > 1)
            occ += numSegments - 1;
        if (sharedSer > 1)
            occ += sharedSer - 1;
    }
    unitBusy_[static_cast<size_t>(d.unit)] = now + occ;

    // --- dependencies / memory ------------------------------------------
    const size_t reg = size_t(slot) * numRegs_ + d.dst;
    if (d.isLdSt) {
        const uint64_t lat = memoryLatency(d, r, now, w);
        if (d.op == Op::Ld && d.writesReg) {
            const bool constant =
                d.space == Space::Const || d.space == Space::Param;
            scoreboard_[reg] = ((now + lat) << 2) | (constant ? 2 : 1);
        }
        if (d.space == Space::Global) {
            pj += numSegments * (l1d_->bypassed() ? 0.0 : p.dcAccess);
            sched_.notifyLongLatency(slot);
        } else if (d.space == Space::Shared) {
            pj += sharedSer * p.shrdAccess;
        } else {
            pj += p.ccAccess;
        }
    } else if (d.writesReg) {
        scoreboard_[reg] = (now + d.latency) << 2;
    }
    // Done with the record: hand its words back to the front end.
    releasedWords_ += w.records.release(r);
    if (releasedWords_ >= kRingWords / 2) {
        fe_->consumed();
        releasedWords_ = 0;
    }

    windowAccum(pj, now);

    // --- control ----------------------------------------------------------
    w.fetchReady = now + (controlTransfer ? 3 : 1);
    if (!warpDone)
        scanScoreboard(slot);

    if (d.op == Op::Bar && !warpDone) {
        CtaSlot &cta = ctas_[w.cta];
        w.atBarrier = true;
        cta.barrierArrived++;
        if (cta.barrierArrived >= cta.liveWarps)
            releaseBarrier(cta);
    }

    if (warpDone) {
        CtaSlot &cta = ctas_[w.cta];
        active_ &= ~(1ull << slot);
        w.nextDec = nullptr;
        sched_.notifyRetired(slot);
        TANGO_ASSERT(liveWarpTotal_ > 0 && cta.liveWarps > 0,
                     "warp accounting underflow");
        liveWarpTotal_--;
        cta.liveWarps--;
        if (cta.liveWarps == 0) {
            cta.active = false;
            freeCtas_++;
            cta.warpMask = 0;
            fe_->releaseCta(cta.window);
        } else if (cta.barrierArrived >= cta.liveWarps &&
                   cta.barrierArrived > 0) {
            // The retiring warp was the last one not at the barrier.
            releaseBarrier(cta);
        }
    }
}

void
SmCore::releaseBarrier(CtaSlot &cta)
{
    const uint64_t waiting = cta.warpMask & active_;
    for (uint64_t m = waiting; m; m &= m - 1)
        warps_[std::countr_zero(m)].atBarrier = false;
    dirty_ |= waiting;
    cta.barrierArrived = 0;
}

KernelStats
SmCore::run(const KernelLaunch &launch, const std::vector<uint64_t> &cta_ids,
            const std::vector<uint32_t> &warp_ids, uint32_t resident_ctas,
            const SimPolicy &policy, FrontEnd &fe, uint64_t *stream_hash)
{
    TANGO_ASSERT(launch.program != nullptr, "launch without program");
    const Program &prog = *launch.program;

    // Decode once per kernel; the front end's warps and the cycle loop
    // share the result.
    const DecodedProgram decoded(prog);
    decoded_ = &decoded;

    raw_ = RawCounts{};
    l1d_->reset();
    constCache_->reset();
    peakWindowDynW_ = 0.0;
    windowStart_ = 0;
    windowEnergyPj_ = 0.0;
    ldstThrottleUntil_ = 0;
    std::fill(std::begin(unitBusy_), std::end(unitBusy_), 0);
    warpAgeCounter_ = 0;
    liveWarpTotal_ = 0;
    ctaOrderCounter_ = 0;
    hashing_ = stream_hash != nullptr;
    if (hashing_) {
        streamHashes_.assign(cta_ids.size() * warp_ids.size(),
                             digest::kInit);
    }

    const uint32_t warpsPerCta =
        static_cast<uint32_t>(warp_ids.size());
    TANGO_ASSERT(warpsPerCta > 0, "no warps to simulate");
    // Every warp has a lane (and Program::validate() refuses an empty
    // program), so every warp launched is live until its last record.
    TANGO_ASSERT(uint64_t(warp_ids.back()) * warpSize <
                     launch.threadsPerCta(),
                 "warp without threads");
    ctas_.assign(resident_ctas, CtaSlot{});
    warps_.clear();
    warps_.resize(size_t(resident_ctas) * warpsPerCta);
    numCtas_ = cta_ids.size();
    freeCtas_ = resident_ctas;
    const uint32_t nSlots = static_cast<uint32_t>(warps_.size());
    TANGO_ASSERT(nSlots <= kMaxWarpSlots,
                 "%u warp slots exceed the %u-slot scheduler masks", nSlots,
                 kMaxWarpSlots);
    active_ = issuable_ = dirty_ = 0;
    why_.assign(nSlots, Stall::NumStalls);
    earliest_.assign(nSlots, farFuture);
    ages_.assign(nSlots, 0);
    numRegs_ = prog.numRegs;
    scoreboard_.assign(size_t(nSlots) * numRegs_, 0);
    sched_.reset(nSlots);

    profiling_ = policy.profile;
    if (profiling_) {
        const size_t nPcs = prog.code.size();
        pcIssued_.assign(nPcs, 0);
        pcStalls_.assign(nPcs * numStalls, 0);
        pcL1dMiss_.assign(nPcs, 0);
        pcL2Miss_.assign(nPcs, 0);
        pcDram_.assign(nPcs, 0);
        slotPc_.assign(nSlots, 0);
        profPc_ = 0;
    }

    // Stall accounting by interval: a warp charged reason r (an issuable
    // warp is NotSelected) from cycle t0 until t1 adds t1 - t0 cycles to
    // r, booked as -t0 when it moves into r and +t1 when it moves out
    // (unsigned arithmetic wraps back to the exact sum), so a cycle costs
    // nothing for the warps that keep their reason.  Every warp moves out
    // when it issues its last instruction, so the sums are complete when
    // the kernel ends.  The per-PC profile books the same intervals under
    // the pc the warp waits at, which changes only when it issues.
    // NumStalls ("not charged") is a sink.
    uint64_t stallCycles[numStalls + 1] = {};
    uint64_t now = 0;
    const auto book = [&](uint32_t slot, Stall r, uint64_t cycles) {
        const auto k = static_cast<size_t>(r);
        stallCycles[k] += cycles;
        if (profiling_ && r != Stall::NumStalls)
            pcStalls_[size_t(slotPc_[slot]) * numStalls + k] += cycles;
    };
    const auto restall = [&](uint32_t slot, Stall from, Stall to) {
        book(slot, from, now);
        book(slot, to, 0 - now);
    };

    // Tracing flags, hoisted so the hot loop pays one predictable branch
    // per decision point when tracing is off (trace_ == nullptr).
    const bool traceStalls =
        trace_ && trace_->wants(trace::EventKind::StallTransition);
    const bool traceOcc =
        trace_ && (trace_->wants(trace::EventKind::OccupancySample) ||
                   trace_->wants(trace::EventKind::MshrSample));
    const uint64_t samplePeriod = trace_ ? trace_->samplePeriod() : 0;
    uint64_t nextSample = 0;
    const auto recordStall = [&](uint32_t slot, Stall from, Stall to,
                                 uint64_t cyc) {
        // Bucket codes: 0 = none, else reason + 1.
        const auto code = [](Stall r) {
            return r == Stall::NumStalls ? 0u : static_cast<uint32_t>(r) + 1;
        };
        trace::Event e;
        e.kind = trace::EventKind::StallTransition;
        e.cycle = cyc;
        e.arg = (code(from) << 8) | code(to);
        e.warp = static_cast<uint16_t>(slot);
        trace_->record(e);
    };

    // Wake-ups of the stalled slots (live, neither dirty nor issuable).
    // A slot that stalls until cycle e (now < e < farFuture) is filed in
    // wheel[e % wheelCycles] when e is less than wheelCycles away, else
    // in the far set, whose earliest wake-up is at least farBound.  The
    // wheel holds the cycles after wheelNow, the last one collected.
    uint64_t wheel[wheelCycles] = {};
    uint64_t wheelNow = 0;
    uint64_t far = 0;
    uint64_t farBound = farFuture;
    const auto fileWakeUp = [&](uint32_t slot, uint64_t at) {
        if (at - now < wheelCycles) {
            wheel[at % wheelCycles] |= 1ull << slot;
        } else if (at != farFuture) {
            far |= 1ull << slot;
            farBound = std::min(farBound, at);
        }
    };

    // The front end executes the CTAs ahead of the cycle loop: the
    // resident ones plus a lookahead of as many again.  resident_ctas is
    // at most kMaxWarpSlots, so the window always covers them.
    static_assert(kMaxWindowCtas >= kMaxWarpSlots);
    FrontEnd::Job job;
    job.launch = &launch;
    job.decoded = &decoded;
    job.ctaIds = &cta_ids;
    job.warpIds = &warp_ids;
    job.gmem = &gmem_;
    job.window = static_cast<uint32_t>(std::max<uint64_t>(
        1, std::min<uint64_t>({2ull * resident_ctas, kMaxWindowCtas,
                               cta_ids.size()})));
    job.hash = hashing_;
    fe_ = &fe;
    releasedWords_ = 0;
    fe.start(job);
    // Stop and join the front end however the cycle loop ends.
    struct Join
    {
        FrontEnd &fe;
        bool ended = false;
        ~Join() { fe.finish(!ended); }
    } join{fe};

    while (liveWarpTotal_ > 0 || ctaOrderCounter_ < numCtas_) {
        if (now > policy.maxCycles) {
            throw CycleCapExceeded("kernel " + prog.name + " exceeded the " +
                                   std::to_string(policy.maxCycles) +
                                   "-cycle safety cap");
        }
        // Fill free CTA slots; their live warps come up dirty.
        while (ctaOrderCounter_ < numCtas_ && freeCtas_ > 0)
            launchCta(warpsPerCta);
        if (liveWarpTotal_ == 0)
            continue;   // CTA produced no live warps (empty block)

        // Evaluate issuability, in ascending slot order (the order of the
        // stall-transition trace).  Dirty and due slots take the full
        // check.  An issuable slot that was not picked re-checks only the
        // shared LDST throttle and unit occupancy: its fetch, barrier and
        // scoreboard state change only when it issues.  Every other
        // stalled slot keeps its cached reason until earliest_.
        uint64_t due = 0;
        if (now - wheelNow >= wheelCycles) {
            for (uint64_t &b : wheel) {
                due |= b;
                b = 0;
            }
        } else {
            for (uint64_t t = wheelNow + 1; t <= now; t++) {
                due |= wheel[t % wheelCycles];
                wheel[t % wheelCycles] = 0;
            }
        }
        wheelNow = now;
        if (now >= farBound) {
            const uint64_t waiting = far;
            far = 0;
            farBound = farFuture;
            for (uint64_t m = waiting; m; m &= m - 1) {
                const auto i = static_cast<uint32_t>(std::countr_zero(m));
                if (earliest_[i] <= now)
                    due |= 1ull << i;
                else
                    fileWakeUp(i, earliest_[i]);
            }
        }
        // An entry outlives its stall if the slot was re-evaluated first
        // (a barrier release marks slots dirty): keep only slots that are
        // still stalled and due.
        due &= active_ & ~issuable_ & ~dirty_;
        for (uint64_t m = due; m; m &= m - 1) {
            const auto i = static_cast<uint32_t>(std::countr_zero(m));
            if (earliest_[i] > now)
                due &= ~(1ull << i);
        }
        const uint64_t full = dirty_ | due;
        dirty_ = 0;
        for (uint64_t m = full | issuable_; m; m &= m - 1) {
            const auto i = static_cast<uint32_t>(std::countr_zero(m));
            const uint64_t bit = 1ull << i;
            const Stall was = why_[i];
            const bool ok =
                (full & bit) ? issuableSlot(i, now, why_[i], earliest_[i])
                             : unitsFree(*warps_[i].nextDec, now, why_[i],
                                         earliest_[i]);
            if (ok) {
                issuable_ |= bit;
            } else {
                issuable_ &= ~bit;
                fileWakeUp(i, earliest_[i]);
            }
            if (why_[i] != was) {
                restall(i, was, why_[i]);
                if (traceStalls)
                    recordStall(i, was, why_[i], now);
            }
        }

        // Issue up to issueWidth instructions.  With at least one issuable
        // slot every policy finds one, so an empty pick() is skipped (its
        // only state effect is replicated by notifyNoneIssuable).
        uint32_t issuedNow = 0;
        for (uint32_t k = 0; k < cfg_.issueWidth; k++) {
            if (issuable_ == 0) {
                sched_.notifyNoneIssuable();
                break;
            }
            const auto slot =
                static_cast<uint32_t>(sched_.pick(issuable_, ages_));
            const uint64_t bit = 1ull << slot;
            // The picked slot was issuable, i.e. charged NotSelected at
            // the pc it now leaves; issued, it is charged nothing.
            restall(slot, Stall::NotSelected, Stall::NumStalls);
            why_[slot] = Stall::NumStalls;
            issue(slot, now);
            if (traceStalls)
                recordStall(slot, Stall::NotSelected, Stall::NumStalls, now);
            issuable_ &= ~bit;
            dirty_ |= bit & active_;        // unless it retired
            issuedNow++;
        }

        // Determine how far we can fast-forward when nothing issued: to
        // the earliest wake-up of the (all stalled) live warps.
        uint64_t skip = 1;
        if (issuedNow == 0) {
            uint64_t nextEvent = farFuture;
            for (uint64_t m = active_; m; m &= m - 1)
                nextEvent = std::min(nextEvent,
                                     earliest_[std::countr_zero(m)]);
            if (nextEvent == farFuture) {
                panic("deadlock in kernel %s at cycle %llu (all warps "
                      "waiting at barriers)",
                      prog.name.c_str(),
                      static_cast<unsigned long long>(now));
            }
            skip = std::max<uint64_t>(1, nextEvent - now);
        }

        raw_.sched += skip;
        now += skip;

        // Periodic occupancy / MSHR counter samples (trace-only; a skip
        // past several windows records one sample — idle windows carry no
        // new information).
        if (traceOcc && now >= nextSample) {
            if (trace_->wants(trace::EventKind::OccupancySample)) {
                trace::Event e;
                e.kind = trace::EventKind::OccupancySample;
                e.cycle = now;
                e.payload = liveWarpTotal_;
                e.arg = static_cast<uint32_t>(ctas_.size()) - freeCtas_;
                trace_->record(e);
            }
            if (trace_->wants(trace::EventKind::MshrSample)) {
                trace::Event e;
                e.kind = trace::EventKind::MshrSample;
                e.cycle = now;
                e.payload = l1d_->liveMshrs();
                e.arg = l2_.liveMshrs();
                trace_->record(e);
            }
            nextSample = now + samplePeriod;
        }
    }

    // --- fold raw counters into the stat set -----------------------------
    KernelStats ks;
    ks.name = prog.name;
    ks.grid = launch.grid;
    ks.block = launch.block;
    ks.smCycles = now;
    ks.regsPerThread = prog.numRegs;
    ks.maxLiveRegs = prog.maxLiveRegs();
    ks.smemBytes = prog.smemBytes;
    ks.cmemBytes = prog.cmemBytes;
    ks.residentCtas = resident_ctas;
    ks.peakWindowDynW = peakWindowDynW_;

    StatSet &st = ks.stats;
    for (size_t i = 0; i < static_cast<size_t>(Op::NumOps); i++) {
        if (raw_.op[i]) {
            st.set(std::string("op.") + opName(static_cast<Op>(i)),
                   static_cast<double>(raw_.op[i]));
        }
    }
    static const DType dts[5] = {DType::F32, DType::U32, DType::S32,
                                 DType::U16, DType::S16};
    for (DType t : dts) {
        const auto i = static_cast<size_t>(t);
        if (raw_.dtype[i]) {
            st.set(std::string("dtype.") + dtypeName(t),
                   static_cast<double>(raw_.dtype[i]));
        }
    }
    st.set("evt.ic", double(raw_.ic));
    st.set("evt.ib", double(raw_.ib));
    st.set("evt.pipe", double(raw_.pipe));
    st.set("evt.rf_operand", double(raw_.rfOperand));
    st.set("evt.sp", double(raw_.sp));
    st.set("evt.fpu", double(raw_.fpu));
    st.set("evt.sfu", double(raw_.sfu));
    st.set("evt.sched", double(raw_.sched));
    st.set("evt.l1d", double(raw_.l1d));
    st.set("evt.cc", double(raw_.cc));
    st.set("evt.shrd", double(raw_.shrd));
    st.set("evt.l2", double(raw_.l2));
    st.set("evt.noc", double(raw_.noc));
    st.set("evt.mc", double(raw_.mc));
    st.set("evt.dram", double(raw_.dram));
    st.set("issued", double(raw_.issued));
    st.set("mem.coalesced_segments", double(raw_.coalescedSegments));
    st.set("mem.global_insts", double(raw_.globalMemInsts));
    for (size_t i = 0; i < numStalls; i++) {
        st.set(std::string("stall.") + stallName(static_cast<Stall>(i)),
               static_cast<double>(stallCycles[i]));
    }
    const CacheStats &l1s = l1d_->stats();
    st.set("mem.l1d.accesses", double(l1s.accesses));
    st.set("mem.l1d.hits", double(l1s.hits));
    st.set("mem.l1d.misses", double(l1s.misses));
    const CacheStats &l2s = l2_.stats();
    st.set("mem.l2.accesses", double(l2s.accesses));
    st.set("mem.l2.hits", double(l2s.hits));
    st.set("mem.l2.misses", double(l2s.misses));
    st.set("dram.accesses", double(dram_.accesses()));
    st.set("dram.queue_cycles", double(dram_.totalQueueCycles()));

    // Flush the final (partial) power window.
    if (windowEnergyPj_ > 0.0) {
        const double seconds = windowCycles / (cfg_.coreClockGhz * 1e9);
        peakWindowDynW_ =
            std::max(peakWindowDynW_, windowEnergyPj_ * 1e-12 / seconds);
        ks.peakWindowDynW = peakWindowDynW_;
    }
    if (hashing_) {
        // Same fold as runFunctionalOnly(): per-warp digests in launch
        // position, so the two executions are directly comparable.
        uint64_t combined = digest::kInit;
        for (uint64_t h : streamHashes_)
            digest::mix(combined, h);
        *stream_hash = combined;
        hashing_ = false;
    }
    if (profiling_) {
        auto prof = std::make_shared<KernelProfile>();
        prof->labels = prog.debug.labels;
        prof->pcLabel = prog.debug.pcLabel;
        prof->pcLabel.resize(prog.code.size(), 0);
        prof->disasm.reserve(prog.code.size());
        for (const Instr &ins : prog.code)
            prof->disasm.push_back(disasm(ins));
        prof->issued = std::move(pcIssued_);
        prof->stalls = std::move(pcStalls_);
        prof->l1dMisses = std::move(pcL1dMiss_);
        prof->l2Misses = std::move(pcL2Miss_);
        prof->dramTxns = std::move(pcDram_);
        prof->lineBytes = cfg_.lineBytes;
        ks.profile = std::move(prof);
        profiling_ = false;
    }
    join.ended = true;
    decoded_ = nullptr;
    fe_ = nullptr;
    return ks;
}

uint64_t
SmCore::stateDigest() const
{
    uint64_t h = digest::kInit;
    digest::mix(h, l1d_->stateDigest());
    digest::mix(h, constCache_->stateDigest());
    return h;
}

} // namespace tango::sim
