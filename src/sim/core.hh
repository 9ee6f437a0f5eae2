/**
 * @file
 * The SM (streaming multiprocessor) timing model.
 *
 * One SmCore simulates a single SM executing a list of CTAs of one kernel:
 * a warp scheduler issues instructions from resident warps, a scoreboard
 * enforces register dependencies, functional units have issue occupancy,
 * and memory instructions walk the L1D -> L2 -> DRAM hierarchy with
 * coalescing and MSHR back-pressure.  Functional execution (real values,
 * less the dead ones of a timing-only launch) runs ahead of the cycle loop
 * on a FrontEnd thread (sim/frontend.hh), which hands every warp's
 * executed instructions over as records (sim/record.hh).
 *
 * The core also performs the paper's measurement duties: per-opcode and
 * per-dtype instruction counts (Figs 8-10), nvprof-style stall accounting
 * (Fig 7), µ-architectural event counts for the power model (Figs 3-6) and
 * a windowed peak-power tracker (Fig 3).
 */

#ifndef TANGO_SIM_CORE_HH
#define TANGO_SIM_CORE_HH

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/stats.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/dram.hh"
#include "sim/frontend.hh"
#include "sim/interp.hh"
#include "sim/profile.hh"
#include "sim/program.hh"
#include "sim/scheduler.hh"
#include "sim/stall.hh"
#include "trace/trace.hh"

namespace tango::sim {

/** Controls how much of a kernel the timing model simulates in detail. */
struct SimPolicy
{
    /** Cap on concurrently resident CTAs per SM (0 = occupancy limit). */
    uint32_t maxResidentCtas = 4;
    /** Cap on concurrently resident (simulated) warps per SM
     *  (0 = no cap).  Unlike maxResidentCtas this adapts to the block
     *  size: single-thread blocks (AlexNet FC) keep their parallelism
     *  while kilothread blocks stay cheap to simulate. */
    uint32_t maxResidentWarps = 0;
    /** CTAs to simulate (0 = one full resident wave).  Values >= the grid
     *  size, or fullSim, simulate every CTA. */
    uint64_t maxSampledCtas = 0;
    /** Simulate every CTA (required for functional end-to-end outputs). */
    bool fullSim = false;
    /**
     * Warp sampling within a CTA (0 = all warps).  Only applied to
     * kernels without barriers (warps are then independent); statistics
     * and cycles are extrapolated linearly.  This is what makes the
     * single-CTA CifarNet-style kernels (Table III grid (1,1,1)) cheap
     * enough for config sweeps; it is ignored when fullSim functional
     * outputs are needed.
     */
    uint32_t maxWarpsPerCta = 0;
    /** Safety valve on simulated cycles per kernel (SmCore::run throws
     *  CycleCapExceeded past it). */
    uint64_t maxCycles = 500'000'000;
    /**
     * Steady-state launch memoization (sim/gpu.cc): once consecutive
     * occurrences of an identical launch signature produce bit-identical
     * statistics, identical µ-arch state fingerprints and identical
     * instruction streams, later matching launches execute functionally only
     * and splice in the cached statistics (a
     * KernelLaunch::valuesUnobserved launch only splices).
     * Self-validating (any divergence falls back to full simulation),
     * on by default; the TANGO_NO_MEMO=1 environment knob
     * force-disables it at runtime.
     * Excluded from the launch signature itself.
     */
    bool memoize = true;
    /**
     * Per-PC attribution profiling (tango::prof): charge issued cycles,
     * per-reason stall cycles, L1D/L2 misses and DRAM transactions to
     * flat per-PC counter arrays and attach a KernelProfile to the
     * launch's KernelStats.  Pure observation: simulated statistics are
     * bit-identical with the flag on or off.  Part of the launch
     * signature (profiled and unprofiled runs memoize separately so
     * replays can splice cached profiles).  TANGO_PROFILE=1 forces it
     * on at runtime.
     */
    bool profile = false;
    /**
     * Intra-run CTA sharding (sim/gpu.cc, sim/shard.hh): partition the
     * launch's sampled CTAs into this many contiguous wave-aligned
     * shards, simulate each on its own SmCore with a private L2/DRAM
     * instance, and reduce the results in fixed shard order.  0 = read
     * the TANGO_SIM_SHARDS environment knob (default 1); 1 = the exact
     * sequential path.  Shard counts > 1 change the simulated sample's
     * memory-system interleaving, so their statistics are pinned by
     * K-parameterized golden fixtures rather than the K=1 set; for a
     * given K the results are bit-identical run to run regardless of
     * thread scheduling (tests/test_parallel_determinism.cc).  Part of
     * the launch memo signature.
     */
    uint32_t shards = 0;
};

/** Results of one kernel launch (scaled to the full grid). */
struct KernelStats
{
    std::string name;
    Dim3 grid, block;
    uint64_t totalCtas = 0;
    uint64_t sampledCtas = 0;
    uint32_t totalWarpsPerCta = 0;
    uint32_t sampledWarpsPerCta = 0;
    double scale = 1.0;          ///< stat scale factor (CTA x warp)

    uint64_t smCycles = 0;       ///< cycles simulated on the one SM
    double gpuCycles = 0.0;      ///< estimated whole-GPU cycles
    double timeSec = 0.0;        ///< gpuCycles / core clock
    uint32_t activeSms = 1;      ///< SMs the grid can keep busy

    /** Scaled counters: op.*, dtype.*, evt.*, stall.*, mem.*. */
    StatSet stats;

    // Resource usage (per-thread / per-CTA, from the program).
    uint32_t regsPerThread = 0;
    uint32_t maxLiveRegs = 0;
    uint32_t smemBytes = 0;
    uint32_t cmemBytes = 0;
    uint32_t residentCtas = 0;   ///< CTAs concurrently simulated on the SM
    uint32_t occupancyCtas = 0;  ///< hardware occupancy limit (uncapped)

    // Power (filled by Gpu::launch).
    double peakPowerW = 0.0;
    double avgPowerW = 0.0;
    double energyJ = 0.0;
    /** Peak per-SM dynamic power over any window, in watts. */
    double peakWindowDynW = 0.0;

    /** Whether these statistics were spliced in by the launch-memoization
     *  layer (functional-only execution; every number is a bit-identical
     *  copy of the steady-state full simulation).  Not a statistic: the
     *  golden fixtures deliberately ignore it. */
    bool replayed = false;

    /** Per-PC attribution profile (only when SimPolicy::profile).  Shared
     *  and treated as immutable once published: replayed launches point
     *  at the armed launch's profile, so never mutate through this
     *  pointer — clone first (runtime work scaling does). */
    std::shared_ptr<KernelProfile> profile;

    /** @return thread-level instruction count. */
    double totalThreadInstructions() const { return stats.sumPrefix("op."); }
};

/** Thrown by SmCore::run when a kernel outlives SimPolicy::maxCycles.
 *  The cap bounds one job, not the process: a serve request that sets
 *  it too low fails alone while the daemon keeps serving. */
struct CycleCapExceeded : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Thrown by Gpu::launch for a launch that would keep more warps
 *  resident than the kMaxWarpSlots slots one SM schedules (a block of
 *  more than 2048 threads).  Like CycleCapExceeded, it fails one job. */
struct TooManyWarpSlots : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

/** One simulated SM executing a set of CTAs of a single kernel. */
class SmCore
{
  public:
    /**
     * @param cfg   platform configuration.
     * @param gmem  device memory (shared with the host-side setup).
     * @param l2    the GPU-shared L2 (owned by the Gpu).
     * @param dram  the DRAM model (owned by the Gpu).
     */
    SmCore(const GpuConfig &cfg, DeviceMemory &gmem, Cache &l2, Dram &dram);

    /**
     * Run @p cta_ids of @p launch to completion.
     * @param launch   the kernel.
     * @param cta_ids  linear CTA indices to simulate (in launch order).
     * @param warp_ids warp indices (within each CTA) to simulate.
     * @param resident_ctas concurrent CTA slots to use.
     * @param policy   simulation policy (cycle cap: throws
     *                 CycleCapExceeded past policy.maxCycles, after
     *                 stopping the front end).
     * @param fe       the front end that executes the CTAs; idle on
     *                 entry and on return.
     * @param stream_hash when non-null, every warp folds its executed
     *        stream into a digest (WarpExec::enableStreamHash) that
     *        arrives with its retiring record, and the combination —
     *        per-warp digests in (CTA order, warp order) position, the
     *        same fold runFunctionalOnly() computes — is written here.
     *        No cost when null (the common case).
     * @return raw (unscaled) statistics for the simulated portion.
     */
    KernelStats run(const KernelLaunch &launch,
                    const std::vector<uint64_t> &cta_ids,
                    const std::vector<uint32_t> &warp_ids,
                    uint32_t resident_ctas, const SimPolicy &policy,
                    FrontEnd &fe, uint64_t *stream_hash = nullptr);

    /** Per-SM L1D statistics of the last run. */
    const CacheStats &l1dStats() const { return l1d_->stats(); }

    /** Per-warp stream digests of the last run, one per (sampled
     *  CTA, sampled warp) launch position — populated only when run()
     *  was asked for a stream hash.  The sharded launch path
     *  (sim/gpu.cc) concatenates these across shards to rebuild the
     *  whole launch's digest array. */
    const std::vector<uint64_t> &streamDigests() const
    {
        return streamHashes_;
    }

    /** Deterministic digest of the SM-side µ-arch state (L1D + constant
     *  cache tags, recency order and MSHRs) after the last run.  Both
     *  caches are reset at the start of every run, so this is a pure
     *  function of the launch — one of the fingerprint inputs of the
     *  launch-memoization layer (sim/gpu.cc). */
    uint64_t stateDigest() const;

  private:
    struct CtaSlot
    {
        bool active = false;
        uint32_t window = 0;   ///< the front end's slot for this CTA
        uint32_t liveWarps = 0;
        uint32_t barrierArrived = 0;
        /** Warp slots the CTA launched live warps into (kept until the
         *  CTA retires). */
        uint64_t warpMask = 0;
    };

    struct WarpSlot
    {
        RingReader records;    ///< the warp's executed instructions
        uint32_t pc = 0;       ///< pc of nextDec
        uint64_t fetchReady = 0;
        /** When the scoreboard lets nextDec issue, and the stall until
         *  then.  Only this warp's issues write its scoreboard, so both
         *  are computed once per issue (scanScoreboard). */
        uint64_t depReady = 0;
        Stall depStall = Stall::ExecDependency;
        uint32_t cta = 0;
        bool atBarrier = false;
        /** Predecoded form of the next instruction to issue, from the
         *  last record's next pc: scheduling needs only static facts,
         *  so a record is taken only when its instruction issues. */
        const DecodedInstr *nextDec = nullptr;
        /** Index into streamHashes_ (launch-position keyed, stable across
         *  slot reuse); only meaningful while hashing_ is set. */
        uint32_t hashSlot = 0;
        /** Per-warp one-entry way predictors (pure lookup accelerators). */
        Cache::WayHint l1Hint, l2Hint, constHint;
    };

    /** Launch the next CTA into a free slot, its @p warps warps live. */
    void launchCta(uint32_t warps);
    bool issuableSlot(uint32_t slot, uint64_t now, Stall &why,
                      uint64_t &earliest) const;
    void scanScoreboard(uint32_t slot);
    bool unitsFree(const DecodedInstr &d, uint64_t now, Stall &why,
                   uint64_t &earliest) const;
    void releaseBarrier(CtaSlot &cta);
    void issue(uint32_t slot, uint64_t now);
    uint64_t memoryLatency(const DecodedInstr &d, const uint32_t *record,
                           uint64_t now, WarpSlot &w);
    void windowAccum(double pj, uint64_t now);

    const GpuConfig &cfg_;
    DeviceMemory &gmem_;
    Cache &l2_;
    Dram &dram_;
    /** This thread's trace sink (cached at construction; null = off). */
    trace::TraceSink *trace_ = nullptr;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> constCache_;
    WarpScheduler sched_;

    /** Per-kernel predecoded program, owned by run() for its duration. */
    const DecodedProgram *decoded_ = nullptr;
    /** The front end of the current run. */
    FrontEnd *fe_ = nullptr;
    /** Ring words released since the front end was last told. */
    uint32_t releasedWords_ = 0;
    std::vector<CtaSlot> ctas_;
    std::vector<WarpSlot> warps_;
    size_t numCtas_ = 0;   ///< CTAs to simulate this run
    uint64_t warpAgeCounter_ = 0;
    /** Stream digests, one per (sampled CTA, sampled warp) launch
     *  position; populated only when run() is asked for a stream hash. */
    std::vector<uint64_t> streamHashes_;
    bool hashing_ = false;
    uint32_t ctaOrderCounter_ = 0;   ///< CTAs launched so far this run
    uint32_t liveWarpTotal_ = 0;
    uint32_t freeCtas_ = 0;

    /**
     * Scheduler-visible slot state, one bit per warp slot.  active_: the
     * slot holds a live warp.  issuable_: its last evaluation found it
     * able to issue.  dirty_: its own state changed (launch, issue,
     * barrier release) since that evaluation.  A live slot in none of
     * issuable_/dirty_ is stalled until earliest_[slot] (farFuture for a
     * barrier wait); run() evaluates only dirty, issuable and due slots.
     */
    uint64_t active_ = 0;
    uint64_t issuable_ = 0;
    uint64_t dirty_ = 0;
    /** Per-slot mirrors read by the cycle loop: the stall reason charged
     *  (NumStalls = none: issued, or not yet evaluated), the cycle it
     *  can end, and the warp's age for the scheduler. */
    std::vector<Stall> why_;
    std::vector<uint64_t> earliest_;
    std::vector<uint64_t> ages_;

    /** Scoreboard of every slot, flat: [slot * numRegs_ + reg] holds
     *  (cycle the register's pending write lands) << 2 | what wrote it
     *  (0 = ALU, 1 = memory, 2 = constant). */
    uint32_t numRegs_ = 0;
    std::vector<uint64_t> scoreboard_;

    // Unit occupancy (busy-until cycle), indexed by Unit.
    uint64_t unitBusy_[5] = {};
    uint64_t ldstThrottleUntil_ = 0;

    /** Raw event counters, kept as plain arrays for speed and converted to
     *  a StatSet once per kernel. */
    struct RawCounts
    {
        uint64_t op[static_cast<size_t>(Op::NumOps)] = {};
        uint64_t dtype[5] = {};   // F32, U32, S32, U16, S16
        uint64_t ic = 0, ib = 0, pipe = 0, rfOperand = 0;
        uint64_t sp = 0, fpu = 0, sfu = 0, sched = 0;
        uint64_t l1d = 0, cc = 0, shrd = 0, l2 = 0, noc = 0, mc = 0,
                 dram = 0;
        uint64_t issued = 0;
        uint64_t coalescedSegments = 0;
        uint64_t globalMemInsts = 0;
    };

    RawCounts raw_;

    /** Per-PC attribution counters (SimPolicy::profile only).  Raw, like
     *  RawCounts; folded into a KernelProfile at the end of run().  All
     *  charging is read-only with respect to simulation state, so the
     *  simulated statistics stay bit-identical either way. */
    bool profiling_ = false;
    uint32_t profPc_ = 0;             ///< pc of the instr being issued
    std::vector<uint32_t> slotPc_;    ///< per-slot current pc mirror
    std::vector<uint64_t> pcIssued_;
    std::vector<uint64_t> pcStalls_;  ///< [pc * numStalls + reason]
    std::vector<uint64_t> pcL1dMiss_;
    std::vector<uint64_t> pcL2Miss_;
    std::vector<uint64_t> pcDram_;

    // Peak-power window tracking.
    uint64_t windowStart_ = 0;
    double windowEnergyPj_ = 0.0;
    double peakWindowDynW_ = 0.0;
    static constexpr uint64_t windowCycles = 4096;
};

} // namespace tango::sim

#endif // TANGO_SIM_CORE_HH
