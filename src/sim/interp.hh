/**
 * @file
 * The SIMT warp interpreter: functional execution of kernel programs.
 *
 * Unlike a trace generator, the interpreter computes *real values* — loads
 * read and stores write actual device memory, arithmetic produces real
 * results.  Small kernels can therefore run end-to-end on the simulator and
 * be checked bit-for-bit against the CPU reference implementation, while
 * the same execution drives the timing model through its executed-
 * instruction records (sim/record.hh).
 *
 * The one exception is a timing-only launch (KernelLaunch::valuesUnobserved):
 * its program is value-oblivious, so no loaded value can reach a guard, a
 * branch or an address, and nothing reads its results.  There the
 * interpreter drops the data of every DecodedInstr::valueDead instruction
 * (ALU/Set/Selp/Mov results, load copies, store writes) and still computes
 * and bounds-checks every address, folds the stream digest and shapes
 * every access, so each record is the one the full data path would give.
 *
 * Branch divergence is handled with a PDOM-style reconvergence stack keyed
 * by SSY-declared reconvergence points, as in real NVIDIA hardware.
 */

#ifndef TANGO_SIM_INTERP_HH
#define TANGO_SIM_INTERP_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/digest.hh"
#include "sim/memory.hh"
#include "sim/program.hh"
#include "sim/record.hh"

namespace tango::sim {

/** Threads per warp. */
inline constexpr uint32_t warpSize = 32;

/** A lane mask (bit i = lane i active). */
using Mask = uint32_t;

/** One executed warp instruction, decoded from its record
 *  (sim/record.hh): the single-instruction view WarpExec::step() gives
 *  tests and tools.  The timing core reads records directly. */
struct Step
{
    Op op = Op::Nop;
    Space space = Space::Global;
    uint32_t activeCount = 0;   ///< lanes that actually executed
    bool warpDone = false;      ///< warp retired with this step
    uint32_t numSegments = 0;   ///< coalesced 128B global segments
    uint32_t sharedSerialization = 1; ///< shared-memory bank conflict factor
    bool constUniform = true;   ///< constant access was a broadcast
    bool controlTransfer = false; ///< pc changed non-sequentially
};

/** Why WarpExec stopped executing a run of instructions. */
enum class SegEnd : uint8_t
{
    Bar,      ///< consumed a Bar (the warp is still live)
    Retired,  ///< every lane has exited
    Paused,   ///< the record destination refused another record
};

/**
 * Coalesce the active lanes' global addresses into 128-byte segments.
 *
 * Segments are emitted in first-appearance order over ascending lane index
 * (the order the per-lane memory model observes them), deduplicated with a
 * last-segment fast path — warps overwhelmingly touch runs of consecutive
 * addresses, so most lanes resolve without scanning the emitted list.
 *
 * @param addrs per-lane byte addresses (entries of inactive lanes ignored).
 * @param exec  active-lane mask.
 * @param out   receives the segment base addresses.
 * @return number of distinct segments written to @p out.
 */
uint32_t coalesceSegments(const uint32_t addrs[warpSize], Mask exec,
                          uint32_t out[warpSize]);

/**
 * Functional-only execution of one kernel launch: runs the same sampled
 * CTA/warp population a full SmCore simulation would run, computes real
 * values (loads/stores touch device memory) but no timing, and returns
 * the combined stream digest.
 *
 * CTAs run one after another through CtaExec, the barrier rule the
 * SmCore front end uses too, so any race-free kernel produces exactly the
 * values and per-warp instruction streams of a timing simulation.
 * Per-warp streams are digested independently and folded in (CTA order,
 * warp order) position — the same combination SmCore::run uses — so the
 * result is directly comparable and independent of interleaving.
 *
 * @param launch   the kernel.
 * @param cta_ids  linear CTA indices to execute (launch order).
 * @param warp_ids warp indices within each CTA to execute.
 * @param gmem     device global memory.
 * @return the combined stream digest of the executed population.
 */
uint64_t runFunctionalOnly(const KernelLaunch &launch,
                           const std::vector<uint64_t> &cta_ids,
                           const std::vector<uint32_t> &warp_ids,
                           DeviceMemory &gmem);

/**
 * Execution state of one warp.
 *
 * The owning core provides global memory, the CTA's shared-memory block and
 * the launch's constant bank.
 */
class WarpExec
{
  public:
    /**
     * @param launch kernel being executed.
     * @param cta_id this warp's CTA coordinates.
     * @param warp_in_cta warp index within the CTA.
     * @param gmem device global memory.
     * @param smem the CTA's shared-memory block (smemBytes long).
     * @param dec  predecoded form of the launch's program; pass the shared
     *             per-kernel instance to decode once instead of per warp
     *             (nullptr = decode privately).
     */
    WarpExec(const KernelLaunch &launch, Dim3 cta_id, uint32_t warp_in_cta,
             DeviceMemory &gmem, std::vector<uint8_t> &smem,
             const DecodedProgram *dec = nullptr);

    /** @return whether every lane has retired. */
    bool done() const { return done_; }

    /** Execute the next instruction for all active lanes. */
    Step step();

    /**
     * Execute instructions until the warp consumes a Bar or retires, or
     * @p out refuses a record, writing one record (sim/record.hh) per
     * executed instruction in place into @p out.  This is what the
     * SmCore front end runs.
     */
    SegEnd runRecorded(RingWriter &out);

    /**
     * Value-only variant of runRecorded(): identical lane execution,
     * control flow and stream-hash folds, but no records and none of the
     * timing shaping (segment coalescing, shared-memory bank conflicts,
     * const-broadcast scan).  Runs until the warp consumes a Bar or
     * retires, so the per-call cost amortizes over the whole
     * barrier-to-barrier segment.  This is what launch replay
     * (sim/gpu.cc) runs.
     */
    SegEnd runFunctionalSegment();

    /**
     * Start folding this warp's executed-instruction stream into an
     * internal digest (readable via streamHash()).
     *
     * The digest covers everything the *timing model* consumes from the
     * stream — per step the pc and executing lane mask (which pin opcode,
     * unit, type and active count), the raw per-lane addresses of every
     * memory access (which pin coalesced segments, bank serialization and
     * const-broadcast shape), and branch outcomes — but no data values:
     * two executions with equal digests take bit-identical trips through
     * the timing model.  Recorded and functional runs fold identically,
     * so digests from a full simulation and a functional-only replay are
     * directly comparable.  This is the self-validation primitive of the
     * launch-memoization layer (sim/gpu.cc): a replayed launch must
     * reproduce the digest recorded during full simulation, else the
     * replay is abandoned.
     */
    void enableStreamHash() { hashing_ = true; }

    /** @return the stream digest folded so far (kInit when disabled). */
    uint64_t streamHash() const { return streamHash_; }

    /** @return warp index within the CTA. */
    uint32_t warpInCta() const { return warpInCta_; }

  private:
    struct StackEntry
    {
        uint32_t pc;
        int32_t rpc;
        Mask mask;
        bool isReconv;
    };

    /** Pop/reconverge until the current path is executable (slow path;
     *  call through resolveFast()). */
    void resolve();

    /** Inline fast path of resolve(): the overwhelmingly common case —
     *  live lanes, no reconvergence point reached — is three compares
     *  and no call. */
    void resolveFast()
    {
        if (done_)
            return;
        if (active_ == 0 ||
            (rpc_ >= 0 && pc_ == static_cast<uint32_t>(rpc_))) {
            resolve();
        }
    }

    /** Shared body of step(), runRecorded() and runFunctionalSegment():
     *  runs until a Bar, retirement or a refused record, writing one
     *  record per instruction to @p out (nothing for a NoRecord). */
    template <typename Out>
    SegEnd stepT(Out &out);

    /** Compute the active lanes' Ld/St byte addresses (src[0] + imm)
     *  into @p addrs.  @return their maximum (0 when @p exec is 0). */
    uint32_t laneAddrs(const Instr &ins, Mask exec,
                       uint32_t addrs[warpSize]) const;

    /** Fold the active lanes' memory addresses into the stream digest. */
    void foldAddrs(Mask exec, const uint32_t addrs[warpSize]);

    uint32_t readReg(uint32_t lane, uint8_t r) const;
    void writeReg(uint32_t lane, uint8_t r, uint32_t v);
    uint32_t operand(uint32_t lane, const Instr &ins, int i) const;

    const KernelLaunch &launch_;
    const Program &prog_;
    const DecodedProgram *dec_ = nullptr;
    std::unique_ptr<DecodedProgram> ownDec_;  ///< used when none was shared
    DeviceMemory &gmem_;
    std::vector<uint8_t> &smem_;

    // Register state: reg-major [reg][lane].
    std::vector<uint32_t> regs_;
    std::vector<Mask> preds_;

    // Per-lane thread coordinates.
    uint32_t tidX_[warpSize], tidY_[warpSize], tidZ_[warpSize];
    Dim3 ctaId_;
    uint32_t warpInCta_ = 0;

    // Control flow.
    uint32_t pc_ = 0;
    int32_t rpc_ = -1;
    Mask active_ = 0;
    std::vector<StackEntry> stack_;
    bool done_ = false;

    // Stream digest (enableStreamHash()).
    bool hashing_ = false;
    uint64_t streamHash_ = digest::kInit;
};

/**
 * One CTA's warps executing functionally, round-robin between barriers: a
 * warp runs until it consumes a Bar or retires, and once every live warp
 * has arrived at the barrier all of them are released.  This is the
 * timing core's release rule (barrierArrived >= liveWarps), so race-free
 * kernels compute identical values in every executor.  runFunctionalOnly
 * and the SmCore front end (sim/frontend.hh) both drive CTAs through it.
 */
class CtaExec
{
  public:
    /** Set up CTA @p linear_id of @p launch with a zeroed shared-memory
     *  block and one WarpExec per entry of @p warp_ids. */
    void start(const KernelLaunch &launch, const DecodedProgram &dec,
               uint64_t linear_id, const std::vector<uint32_t> &warp_ids,
               DeviceMemory &gmem, bool hash);

    /**
     * Give every runnable warp (live, not parked at a barrier) one
     * @p run(i, warp) call in warp order; run returns how the warp
     * stopped, and SegEnd::Paused leaves it runnable.  Then release the
     * barrier if every live warp waits at it.
     * @return whether the barrier was released.
     */
    template <typename Run>
    bool sweep(Run &&run)
    {
        for (size_t i = 0; i < warps_.size(); i++) {
            if (waiting_[i] || warps_[i]->done())
                continue;
            switch (run(i, *warps_[i])) {
              case SegEnd::Retired:
                live_--;
                break;
              case SegEnd::Bar:
                waiting_[i] = 1;
                atBarrier_++;
                break;
              case SegEnd::Paused:
                break;
            }
        }
        if (live_ == 0 || atBarrier_ < live_)
            return false;
        std::fill(waiting_.begin(), waiting_.end(), 0);
        atBarrier_ = 0;
        return true;
    }

    /** @return whether every warp has retired. */
    bool done() const { return live_ == 0; }

    size_t numWarps() const { return warps_.size(); }
    const WarpExec &warp(size_t i) const { return *warps_[i]; }

  private:
    std::vector<uint8_t> smem_;
    std::vector<std::unique_ptr<WarpExec>> warps_;
    std::vector<uint8_t> waiting_;
    uint32_t live_ = 0;
    uint32_t atBarrier_ = 0;
};

} // namespace tango::sim

#endif // TANGO_SIM_INTERP_HH
