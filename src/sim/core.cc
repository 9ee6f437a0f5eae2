#include "sim/core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/digest.hh"

namespace tango::sim {

namespace {

/** Sentinel "will not become ready by itself" cycle (barrier waits). */
constexpr uint64_t farFuture = ~0ULL;

/** Extra latency charged when an MSHR file is full (back-pressure). */
constexpr uint64_t throttlePenalty = 25;

} // namespace

SmCore::SmCore(const GpuConfig &cfg, DeviceMemory &gmem, Cache &l2,
               Dram &dram)
    : cfg_(cfg), gmem_(gmem), l2_(l2), dram_(dram)
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

    sched_ = makeScheduler(cfg.scheduler);

    trace_ = trace::threadSink();
    l1d_->setTrace(trace_, trace::CacheLevel::L1D);
    constCache_->setTrace(trace_, trace::CacheLevel::Const);
}

Dim3
SmCore::ctaCoord(const Dim3 &grid, uint64_t linear)
{
    Dim3 c;
    c.x = static_cast<uint32_t>(linear % grid.x);
    c.y = static_cast<uint32_t>((linear / grid.x) % grid.y);
    c.z = static_cast<uint32_t>(linear / (uint64_t(grid.x) * grid.y));
    return c;
}

void
SmCore::launchCta(const KernelLaunch &launch, uint64_t linear_id,
                  const std::vector<uint32_t> &warp_ids)
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
    cta.smem.assign(std::max<uint32_t>(launch.program->smemBytes, 1), 0);
    cta.warpSlots.clear();

    const Dim3 coord = ctaCoord(launch.grid, linear_id);
    const uint32_t ctaOrder = ctaOrderCounter_++;
    uint32_t warpOrder = 0;
    for (uint32_t w : warp_ids) {
        uint32_t ws = 0;
        for (; ws < warps_.size(); ws++) {
            if (!warps_[ws].active)
                break;
        }
        TANGO_ASSERT(ws < warps_.size(), "no free warp slot");
        WarpSlot &slotRef = warps_[ws];
        slotRef.exec = std::make_unique<WarpExec>(launch, coord, w, gmem_,
                                                  cta.smem, decoded_);
        if (hashing_)
            slotRef.exec->enableStreamHash();
        slotRef.regReady.assign(launch.program->numRegs, 0);
        slotRef.regPendKind.assign(launch.program->numRegs, 0);
        slotRef.fetchReady = 0;
        slotRef.cta = slot;
        slotRef.active = !slotRef.exec->done();
        slotRef.atBarrier = false;
        slotRef.age = warpAgeCounter_++;
        slotRef.nextDec =
            slotRef.active ? &slotRef.exec->peekDecoded() : nullptr;
        slotRef.l1Hint = Cache::WayHint{};
        slotRef.l2Hint = Cache::WayHint{};
        slotRef.constHint = Cache::WayHint{};
        slotRef.hashSlot =
            ctaOrder * static_cast<uint32_t>(warp_ids.size()) + warpOrder++;
        if (profiling_)
            slotPc_[ws] = slotRef.active ? slotRef.exec->pc() : 0;
        evalDirty_[ws] = slotRef.active ? 1 : 0;
        activeF_[ws] = slotRef.active ? 1 : 0;
        ages_[ws] = slotRef.age;
        // Not chargeable until the first evaluation (the incremental stall
        // buckets in run() treat NumStalls as "no bucket").
        issuable_[ws] = 0;
        why_[ws] = Stall::NumStalls;
        if (slotRef.active) {
            cta.warpSlots.push_back(ws);
            liveWarpTotal_++;
        }
    }
    cta.liveWarps = static_cast<uint32_t>(cta.warpSlots.size());
}

bool
SmCore::issuableSlot(uint32_t slot, uint64_t now, Stall &why,
                     uint64_t &earliest)
{
    WarpSlot &w = warps_[slot];
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
    const DecodedInstr &d = *w.nextDec;

    // Scoreboard: all sources and the destination must be ready.
    uint64_t depReady = 0;
    uint8_t depKind = 0;
    for (uint32_t i = 0; i < d.numSrcRegs; i++) {
        const uint8_t r = d.srcRegs[i];
        if (w.regReady[r] > now && w.regReady[r] > depReady) {
            depReady = w.regReady[r];
            depKind = w.regPendKind[r];
        }
    }
    if (d.writesReg && w.regReady[d.dst] > now &&
        w.regReady[d.dst] > depReady) {
        depReady = w.regReady[d.dst];
        depKind = w.regPendKind[d.dst];
    }
    if (depReady > now) {
        why = depKind == 1 ? Stall::MemoryDependency
            : depKind == 2 ? Stall::ConstantMemoryDependency
                           : Stall::ExecDependency;
        earliest = depReady;
        return false;
    }

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
SmCore::memoryLatency(const Step &st, uint64_t now, WarpSlot &w)
{
    const bool write = st.isStore;
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

    switch (st.space) {
      case Space::Global: {
        raw_.globalMemInsts++;
        raw_.coalescedSegments += st.numSegments;
        for (uint32_t s = 0; s < st.numSegments; s++) {
            const uint32_t addr = st.segments[s];
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
        if (st.numSegments > 1)
            maxLat += st.numSegments - 1;
        break;
      }
      case Space::Shared: {
        raw_.shrd += st.sharedSerialization;
        maxLat = cfg_.smemLatency + 2ull * (st.sharedSerialization - 1);
        break;
      }
      case Space::Const: {
        const uint32_t accesses = st.constUniform ? 1 : 2;
        raw_.cc += accesses;
        // Model the constant cache with real tag state keyed on the
        // immediate-offset address of lane 0's access.
        const Cache::Result r =
            constCache_->access(st.segments[0], false, now, &w.constHint);
        maxLat = r.hit ? cfg_.constHitLatency
                       : cfg_.constHitLatency + cfg_.l2HitLatency;
        if (!st.constUniform)
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
    // nextDec points into the per-kernel DecodedProgram (stable storage),
    // so the reference stays valid across step().
    const DecodedInstr &d = *w.nextDec;
    // Attribution pc must be read before step() advances the warp; it is
    // cheap here because peekDecoded() already resolved reconvergence.
    uint32_t ipc = 0;
    if (profiling_)
        ipc = w.exec->pc();
    const Step st = w.exec->step();
    if (hashing_ && st.warpDone)
        streamHashes_[w.hashSlot] = w.exec->streamHash();
    if (!st.warpDone)
        w.nextDec = &w.exec->peekDecoded();
    if (profiling_) {
        profPc_ = ipc;
        pcIssued_[ipc]++;
        slotPc_[slot] = st.warpDone ? 0 : w.exec->pc();
    }
    const PowerParams &p = cfg_.power;

    // --- instruction accounting -----------------------------------------
    raw_.issued++;
    raw_.op[static_cast<size_t>(st.op)] += st.activeCount;
    if (st.type != DType::None && st.type != DType::Pred &&
        st.activeCount > 0) {
        raw_.dtype[static_cast<size_t>(st.type)] += st.activeCount;
    }
    raw_.ic++;
    raw_.ib++;
    raw_.pipe++;
    const uint32_t rfOps = st.numSrcRegs + (st.writesReg ? 1 : 0);
    raw_.rfOperand += rfOps;

    double pj = p.icAccess + p.ibAccess + p.pipeIssue + rfOps * p.rfOperand;
    switch (st.unit) {
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
    if (st.unit == Unit::SFU)
        occ = 4;
    if (st.unit == Unit::LDST) {
        occ = 1;
        if (st.numSegments > 1)
            occ += st.numSegments - 1;
        if (st.sharedSerialization > 1)
            occ += st.sharedSerialization - 1;
    }
    unitBusy_[static_cast<size_t>(st.unit)] = now + occ;

    // --- dependencies / memory ------------------------------------------
    if (st.isMem) {
        const uint64_t lat = memoryLatency(st, now, w);
        if (!st.isStore && st.writesReg) {
            w.regReady[d.dst] = now + lat;
            w.regPendKind[d.dst] =
                (st.space == Space::Const || st.space == Space::Param) ? 2
                                                                       : 1;
        }
        if (st.space == Space::Global) {
            pj += st.numSegments * (l1d_->bypassed() ? 0.0 : p.dcAccess);
            sched_->notifyLongLatency(slot);
        } else if (st.space == Space::Shared) {
            pj += st.sharedSerialization * p.shrdAccess;
        } else {
            pj += p.ccAccess;
        }
    } else if (st.writesReg) {
        w.regReady[d.dst] = now + d.latency;
        w.regPendKind[d.dst] = 0;
    }

    windowAccum(pj, now);

    // --- control ----------------------------------------------------------
    w.fetchReady = now + (st.controlTransfer ? 3 : 1);

    if (st.op == Op::Bar && !st.warpDone) {
        CtaSlot &cta = ctas_[w.cta];
        w.atBarrier = true;
        cta.barrierArrived++;
        if (cta.barrierArrived >= cta.liveWarps) {
            for (uint32_t ws : cta.warpSlots) {
                if (warps_[ws].active) {
                    warps_[ws].atBarrier = false;
                    evalDirty_[ws] = 1;
                }
            }
            cta.barrierArrived = 0;
        }
    }

    if (st.warpDone) {
        CtaSlot &cta = ctas_[w.cta];
        w.active = false;
        w.nextDec = nullptr;
        activeF_[slot] = 0;
        w.exec.reset();
        sched_->notifyRetired(slot);
        TANGO_ASSERT(liveWarpTotal_ > 0 && cta.liveWarps > 0,
                     "warp accounting underflow");
        liveWarpTotal_--;
        cta.liveWarps--;
        if (cta.liveWarps == 0) {
            cta.active = false;
            freeCtas_++;
            cta.warpSlots.clear();
        } else if (cta.barrierArrived >= cta.liveWarps &&
                   cta.barrierArrived > 0) {
            // The retiring warp was the last one not at the barrier.
            for (uint32_t ws : cta.warpSlots) {
                if (warps_[ws].active) {
                    warps_[ws].atBarrier = false;
                    evalDirty_[ws] = 1;
                }
            }
            cta.barrierArrived = 0;
        }
    }
}

KernelStats
SmCore::run(const KernelLaunch &launch, const std::vector<uint64_t> &cta_ids,
            const std::vector<uint32_t> &warp_ids, uint32_t resident_ctas,
            const SimPolicy &policy, uint64_t *stream_hash)
{
    TANGO_ASSERT(launch.program != nullptr, "launch without program");
    const Program &prog = *launch.program;

    // Decode once per kernel; every warp of every CTA shares the result.
    const DecodedProgram decoded(prog);
    decoded_ = &decoded;

    launch_ = &launch;
    raw_ = RawCounts{};
    stalls_.fill(0);
    stats_.clear();
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
    ctas_.assign(resident_ctas, CtaSlot{});
    warps_.clear();
    warps_.resize(size_t(resident_ctas) * warpsPerCta);
    pendingCtas_ = cta_ids;
    nextPending_ = 0;
    freeCtas_ = resident_ctas;
    const uint32_t nSlots = static_cast<uint32_t>(warps_.size());
    // Inactive slots carry earliest_ == farFuture and a clear dirty flag,
    // so the per-cycle scan needs no activity check: the re-evaluation
    // condition can only fire for live warps, and far-future sentinels
    // fall out of the wake-up minimum by themselves.
    evalDirty_.assign(nSlots, 0);
    activeF_.assign(nSlots, 0);
    issuable_.assign(nSlots, 0);
    why_.assign(nSlots, Stall::NumStalls);
    ages_.assign(nSlots, 0);
    earliest_.assign(nSlots, farFuture);
    sched_->reset(nSlots);

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

    // Incremental stall accounting: bucketOf(i) maps a slot to the stall
    // reason the per-cycle accounting would charge it (or -1 for "none"),
    // and stallCnt[] holds how many slots sit in each bucket.  Every write
    // to activeF_/issuable_/why_ keeps the counts in step, so each cycle
    // charges numStalls counters instead of walking every warp slot.
    // issuableCnt tracks how many slots are currently issuable; the
    // scheduler is only asked to scan when at least one is.
    uint64_t stallCnt[numStalls] = {};
    uint32_t issuableCnt = 0;
    const auto bucketOf = [&](uint32_t i) -> int {
        if (!activeF_[i] || why_[i] == Stall::NumStalls)
            return -1;
        return static_cast<int>(issuable_[i] ? Stall::NotSelected : why_[i]);
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
    const auto recordStall = [&](uint32_t slot, int ob, int nb,
                                 uint64_t cyc) {
        trace::Event e;
        e.kind = trace::EventKind::StallTransition;
        e.cycle = cyc;
        e.arg = (static_cast<uint32_t>(ob + 1) << 8) |
                static_cast<uint32_t>(nb + 1);
        e.warp = static_cast<uint16_t>(slot);
        trace_->record(e);
    };

    uint64_t now = 0;

    while (liveWarpTotal_ > 0 || nextPending_ < pendingCtas_.size()) {
        if (now > policy.maxCycles) {
            throw CycleCapExceeded("kernel " + prog.name + " exceeded the " +
                                   std::to_string(policy.maxCycles) +
                                   "-cycle safety cap");
        }
        // Fill free CTA slots.  launchCta resets the relaunched slots to
        // the "not chargeable" state, so the buckets stay consistent.
        while (nextPending_ < pendingCtas_.size() && freeCtas_ > 0)
            launchCta(launch, pendingCtas_[nextPending_++], warp_ids);
        if (liveWarpTotal_ == 0)
            continue;   // CTA produced no live warps (empty block)

        // Evaluate issuability.  Warps whose cached stall points to a
        // future event keep their cached reason (exact accounting, less
        // scanning); dirty or due warps are re-evaluated.  The pass also
        // collects the earliest wake-up event over all live warps: no
        // later step this cycle changes earliest_ or (when nothing ends
        // up issuing) the live set, so the minimum is already exact.
        uint64_t nextEvent = farFuture;
        for (uint32_t i = 0; i < nSlots; i++) {
            if (evalDirty_[i] || earliest_[i] <= now) {
                const int ob = bucketOf(i);
                const bool oi = issuable_[i] != 0;
                issuable_[i] =
                    issuableSlot(i, now, why_[i], earliest_[i]) ? 1 : 0;
                evalDirty_[i] = 0;
                const int nb = bucketOf(i);
                if (ob != nb) {
                    if (ob >= 0)
                        stallCnt[ob]--;
                    if (nb >= 0)
                        stallCnt[nb]++;
                    if (traceStalls)
                        recordStall(i, ob, nb, now);
                }
                if (oi != (issuable_[i] != 0))
                    issuableCnt += issuable_[i] ? 1 : -1;
            }
            nextEvent = std::min(nextEvent, earliest_[i]);
        }

        // Issue up to issueWidth instructions.  With at least one issuable
        // slot every scheduler finds one, so a pick() scan that would come
        // back empty is skipped (its only state effect is replicated by
        // notifyNoneIssuable).
        uint32_t issuedNow = 0;
        for (uint32_t k = 0; k < cfg_.issueWidth; k++) {
            if (issuableCnt == 0) {
                sched_->notifyNoneIssuable();
                break;
            }
            const int pickIdx = sched_->pick(issuable_, ages_);
            if (pickIdx < 0)
                break;
            issue(static_cast<uint32_t>(pickIdx), now);
            // The picked slot was issuable, i.e. bucketed NotSelected.
            stallCnt[static_cast<size_t>(Stall::NotSelected)]--;
            issuableCnt--;
            if (traceStalls) {
                // NotSelected -> issued (-1 = no bucket).
                recordStall(static_cast<uint32_t>(pickIdx),
                            static_cast<int>(Stall::NotSelected), -1, now);
            }
            issuable_[pickIdx] = 0;
            why_[pickIdx] = Stall::NumStalls;  // issued: no stall charged
            if (activeF_[pickIdx]) {
                evalDirty_[pickIdx] = 1;
            } else {
                // Retired with this issue: park the slot on the inactive
                // sentinels so the per-cycle scan skips it.
                evalDirty_[pickIdx] = 0;
                earliest_[pickIdx] = farFuture;
            }
            issuedNow++;
        }

        // Determine how far we can fast-forward when nothing issued.
        uint64_t skip = 1;
        if (issuedNow == 0) {
            if (nextEvent == farFuture) {
                panic("deadlock in kernel %s at cycle %llu (all warps "
                      "waiting at barriers)",
                      prog.name.c_str(),
                      static_cast<unsigned long long>(now));
            }
            skip = std::max<uint64_t>(1, nextEvent - now);
        }

        // Stall accounting: every active, non-issued warp is charged its
        // reason for each skipped cycle; the scheduler is active the whole
        // time.
        for (size_t s = 0; s < numStalls; s++)
            stalls_[s] += stallCnt[s] * skip;
        if (profiling_) {
            // Per-PC attribution walk, mirroring bucketOf() exactly so the
            // per-PC sums reproduce stalls_[] bit-for-bit: each stalled
            // warp charges the pc of the instruction it is waiting to
            // issue.
            for (uint32_t i = 0; i < nSlots; i++) {
                const int bkt = bucketOf(i);
                if (bkt >= 0)
                    pcStalls_[size_t(slotPc_[i]) * numStalls + bkt] += skip;
            }
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
               static_cast<double>(stalls_[i]));
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
        // Warps still resident here (e.g. after a maxCycles truncation)
        // were never captured at retirement; sweep their partial digests.
        for (const WarpSlot &w : warps_) {
            if (w.exec && w.active)
                streamHashes_[w.hashSlot] = w.exec->streamHash();
        }
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
    decoded_ = nullptr;
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
