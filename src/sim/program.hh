/**
 * @file
 * Kernel programs and launch descriptors.
 *
 * A Program is a straight vector of Instr plus resource metadata (register
 * count, shared/constant memory bytes).  A KernelLaunch pairs a program with
 * a CUDA-style grid/block geometry — the same (gridDim, blockDim) pairs the
 * paper lists in Table III.
 */

#ifndef TANGO_SIM_PROGRAM_HH
#define TANGO_SIM_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/isa.hh"

namespace tango::sim {

/** CUDA-style 3-component dimension. */
struct Dim3
{
    uint32_t x = 1, y = 1, z = 1;

    uint64_t count() const { return uint64_t(x) * y * z; }
    bool operator==(const Dim3 &o) const = default;
};

/**
 * DSL source mapping: which kernel-DSL statement emitted each instruction.
 *
 * The kernel builder's scoped mark("label") API records the active label
 * for every instruction it appends, so per-PC profile counters can be
 * rolled back up to the statement that emitted them (conv.mac,
 * gru.gate_sigmoid, ...).  Label ids are interned; id 0 is always the
 * empty (unlabeled) string.  pcLabel is in lock-step with Program::code;
 * an empty table means "no debug info" and every pc maps to label 0.
 */
struct DebugInfo
{
    std::vector<std::string> labels{std::string()}; ///< id -> label text
    std::vector<uint16_t> pcLabel;                  ///< pc -> label id

    /** Intern @p label, returning its id (0 for the empty string). */
    uint16_t intern(const std::string &label);

    /** @return label id of @p pc (0 when out of range / unlabeled). */
    uint16_t labelId(uint32_t pc) const
    {
        return pc < pcLabel.size() ? pcLabel[pc] : 0;
    }

    /** @return label text of @p pc ("" when unlabeled). */
    const std::string &labelAt(uint32_t pc) const
    {
        return labels[labelId(pc)];
    }
};

/** A compiled kernel program. */
struct Program
{
    std::string name;            ///< kernel name, e.g. "alexnet.conv1_1"
    std::vector<Instr> code;     ///< the instruction stream
    uint32_t numRegs = 0;        ///< architectural registers per thread
    uint32_t numPreds = 0;       ///< predicate registers per thread
    uint32_t smemBytes = 0;      ///< static shared memory per CTA
    uint32_t cmemBytes = 0;      ///< constant-bank bytes referenced
    DebugInfo debug;             ///< pc -> DSL statement label mapping

    /** @return maximum number of simultaneously live registers
     *  (linear-scan def/use approximation; always <= numRegs). */
    uint32_t maxLiveRegs() const;

    /** @return full disassembly, one instruction per line. */
    std::string disassemble() const;

    /**
     * Sanity-check operands, targets and register bounds, opcode/type
     * pairs the ALU cannot execute (an f32 shl, an integer rsqrt, ...)
     * and stores to a read-only space; panics on error.  Gpu::launch
     * runs it on every launch, so the interpreter need not recheck what
     * it refuses — not even for instructions whose values it drops.
     */
    void validate() const;
};

/**
 * One predecoded instruction: every per-instruction property the hot loops
 * of the interpreter and SM core would otherwise recompute per *dynamic*
 * instruction (unit lookups, scoreboard source-register extraction, result
 * latency, operand arity).  All fields are pure functions of the Instr, so
 * decoding once per kernel cannot change any simulated statistic.
 */
struct DecodedInstr
{
    Op op = Op::Nop;            ///< Instr::op
    DType type = DType::None;   ///< Instr::type
    Space space = Space::Global; ///< Instr::space (meaningful for Ld/St)
    Unit unit = Unit::SP;       ///< opUnitTyped(op, type)
    uint8_t dst = 0;            ///< Instr::dst
    /** Scoreboard source registers (instrSourceRegs; immediates and
     *  predicate-file indices excluded). */
    uint8_t srcRegs[3] = {};
    uint8_t numSrcRegs = 0;
    uint8_t nsrc = 2;           ///< operand arity of the ALU execute path
    bool writesReg = false;     ///< instrWritesReg
    bool isLdSt = false;        ///< Op::Ld or Op::St
    /**
     * The program is valueOblivious() and this instruction is a St or
     * writes a register or predicate the taint fixpoint marks: its value
     * can reach only other dead writes and store data, never a guard, a
     * branch or an address.  A KernelLaunch::valuesUnobserved launch
     * therefore skips its result write, load copy or store write
     * (WarpExec) without moving any statistic.
     */
    bool valueDead = false;
    uint32_t latency = 1;       ///< opLatency(op)
};

/** A kernel program decoded once into a flat DecodedInstr array, indexed by
 *  pc in lock-step with Program::code.  Decoding runs the same taint
 *  fixpoint as valueOblivious() to set DecodedInstr::valueDead. */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const Program &prog);

    const DecodedInstr &operator[](uint32_t pc) const { return ops_[pc]; }
    size_t size() const { return ops_.size(); }

  private:
    std::vector<DecodedInstr> ops_;
};

/**
 * @return whether no guard predicate (branch conditions included) and
 * no Ld/St address of @p prog can depend on a value loaded from global
 * or shared memory.  A flow-insensitive taint fixpoint over the
 * register and predicate files: loads from those two spaces are the
 * sources, and taint flows through every register write, predicate Set
 * and Selp predicate.  Params, the constant bank, special registers and
 * immediates are clean — all of them are hashed into the memo launch
 * signature — so an oblivious program's executed pcs, exec masks and
 * addresses (its stream digest) are fixed by its launch.
 */
bool valueOblivious(const Program &prog);

/** One kernel launch: program + geometry + parameter block. */
struct KernelLaunch
{
    std::shared_ptr<const Program> program;
    Dim3 grid;
    Dim3 block;
    /** Kernel parameters (32-bit words; pointers are global addresses). */
    std::vector<uint32_t> params;
    /** Constant-bank contents for this launch (dims, scales, ...). */
    std::vector<uint8_t> constData;
    /**
     * Nothing reads this launch's values, and its program passed
     * valueOblivious(), so its instruction stream is a function of the launch
     * signature.  rt::lower()/lowerRnn() set it for timing-only
     * lowerings; an armed memo replay then splices the cached
     * statistics without executing (sim/gpu.cc), and a simulated one
     * skips the data path of every DecodedInstr::valueDead instruction:
     * no ALU result, load copy or store write, so the launch writes no
     * device memory.  Addresses, bounds checks and every record field
     * still come from the executed lanes.  Not part of the launch
     * signature: it changes how a launch runs, never what it reports.
     */
    bool valuesUnobserved = false;

    uint64_t totalThreads() const { return grid.count() * block.count(); }
    uint32_t threadsPerCta() const
    {
        return static_cast<uint32_t>(block.count());
    }
    uint32_t warpsPerCta() const { return (threadsPerCta() + 31) / 32; }
};

} // namespace tango::sim

#endif // TANGO_SIM_PROGRAM_HH
