#include "sim/program.hh"

#include <algorithm>
#include <bitset>

#include "common/logging.hh"

namespace tango::sim {

uint32_t
Program::maxLiveRegs() const
{
    // Linear-scan liveness approximation: a register is live from its first
    // write to its last read.  Control flow is ignored, which matches the
    // "max live" metric closely for the mostly-structured kernels we build.
    std::vector<int> firstWrite(numRegs, -1);
    std::vector<int> lastRead(numRegs, -1);
    uint8_t srcs[3];
    for (size_t pc = 0; pc < code.size(); pc++) {
        const Instr &ins = code[pc];
        const int n = instrSourceRegs(ins, srcs);
        for (int i = 0; i < n; i++) {
            if (srcs[i] < numRegs)
                lastRead[srcs[i]] = static_cast<int>(pc);
        }
        if (instrWritesReg(ins) && ins.dst < numRegs &&
            firstWrite[ins.dst] < 0) {
            firstWrite[ins.dst] = static_cast<int>(pc);
        }
    }
    // Sweep program points, counting intervals covering each point.
    uint32_t live = 0, maxLive = 0;
    std::vector<int> delta(code.size() + 1, 0);
    for (uint32_t r = 0; r < numRegs; r++) {
        if (firstWrite[r] < 0)
            continue;
        int end = std::max(lastRead[r], firstWrite[r]);
        delta[firstWrite[r]] += 1;
        delta[end + 1] -= 1;
    }
    for (size_t pc = 0; pc <= code.size(); pc++) {
        live += delta[pc];
        maxLive = std::max(maxLive, live);
    }
    return maxLive;
}

namespace {

/** Registers and predicates that may hold a value loaded from global or
 *  shared memory.  Indices are uint8_t, so 256 bits cover any program,
 *  valid or not. */
struct Taint
{
    std::bitset<256> reg, pred;
};

/**
 * The flow-insensitive taint fixpoint behind valueOblivious() and
 * DecodedInstr::valueDead.  Loads from global or shared memory are the
 * sources; taint flows through every register write with a tainted
 * source, a predicate Set with a tainted source, and a Selp whose
 * predicate is tainted.
 */
Taint
valueTaint(const Program &prog)
{
    Taint t;
    uint8_t srcs[3];
    for (bool changed = true; changed;) {
        changed = false;
        for (const Instr &ins : prog.code) {
            bool tainted = ins.op == Op::Ld && (ins.space == Space::Global ||
                                                ins.space == Space::Shared);
            if (ins.op == Op::Selp)
                tainted |= t.pred[ins.src[2]];
            const int n = instrSourceRegs(ins, srcs);
            for (int i = 0; i < n; i++)
                tainted |= t.reg[srcs[i]];
            if (!tainted)
                continue;
            const bool setsPred = ins.op == Op::Set && ins.dstIsPred;
            if (!setsPred && !instrWritesReg(ins))
                continue;
            std::bitset<256> &file = setsPred ? t.pred : t.reg;
            if (!file[ins.dst]) {
                file[ins.dst] = true;
                changed = true;
            }
        }
    }
    return t;
}

/** @return whether no guard and no Ld/St address of @p prog reads @p t. */
bool
oblivious(const Program &prog, const Taint &t)
{
    for (const Instr &ins : prog.code) {
        if (ins.pred != noPred && t.pred[ins.pred])
            return false;
        if ((ins.op == Op::Ld || ins.op == Op::St) &&
            ins.src[0] != Instr::immReg && t.reg[ins.src[0]])
            return false;
    }
    return true;
}

/** @return the type class ("f32" or "int") the ALU cannot run @p ins's
 *  opcode on, or nullptr when it can (or @p ins is not an ALU op). */
const char *
aluTypeError(const Instr &ins)
{
    switch (ins.op) {
      case Op::And: case Op::Mad24: case Op::Not: case Op::Or:
      case Op::Shl: case Op::Shr: case Op::Xor:
        return ins.type == DType::F32 ? "f32" : nullptr;
      case Op::Ex2: case Op::Lg2: case Op::Rcp: case Op::Rsqrt:
      case Op::Sqrt:
        return ins.type == DType::F32 ? nullptr : "int";
      default:
        return nullptr;
    }
}

} // namespace

DecodedProgram::DecodedProgram(const Program &prog)
{
    const Taint taint = valueTaint(prog);
    const bool dropValues = oblivious(prog, taint);
    ops_.resize(prog.code.size());
    for (size_t pc = 0; pc < prog.code.size(); pc++) {
        const Instr &ins = prog.code[pc];
        DecodedInstr &d = ops_[pc];
        d.op = ins.op;
        d.type = ins.type;
        d.space = ins.space;
        d.unit = opUnitTyped(ins.op, ins.type);
        d.dst = ins.dst;
        d.numSrcRegs =
            static_cast<uint8_t>(instrSourceRegs(ins, d.srcRegs));
        d.writesReg = instrWritesReg(ins);
        d.isLdSt = ins.op == Op::Ld || ins.op == Op::St;
        d.valueDead =
            dropValues &&
            (ins.op == Op::St || (d.writesReg && taint.reg[ins.dst]) ||
             (ins.op == Op::Set && ins.dstIsPred && taint.pred[ins.dst]));
        d.latency = opLatency(ins.op);
        switch (ins.op) {
          case Op::Abs: case Op::Not: case Op::Cvt: case Op::Rcp:
          case Op::Rsqrt: case Op::Sqrt: case Op::Ex2: case Op::Lg2:
            d.nsrc = 1;
            break;
          case Op::Mad: case Op::Mad24:
            d.nsrc = 3;
            break;
          default:
            d.nsrc = 2;
            break;
        }
    }
}

bool
valueOblivious(const Program &prog)
{
    return oblivious(prog, valueTaint(prog));
}

uint16_t
DebugInfo::intern(const std::string &label)
{
    for (size_t i = 0; i < labels.size(); i++) {
        if (labels[i] == label)
            return static_cast<uint16_t>(i);
    }
    TANGO_ASSERT(labels.size() < 0xffff, "label table overflow");
    labels.push_back(label);
    return static_cast<uint16_t>(labels.size() - 1);
}

std::string
Program::disassemble() const
{
    std::string out;
    char buf[32];
    for (size_t i = 0; i < code.size(); i++) {
        std::snprintf(buf, sizeof(buf), "%4zu: ", i);
        out += buf;
        out += disasm(code[i]);
        out += "\n";
    }
    return out;
}

void
Program::validate() const
{
    uint8_t srcs[3];
    for (size_t pc = 0; pc < code.size(); pc++) {
        const Instr &ins = code[pc];
        if (instrWritesReg(ins) && ins.dst >= numRegs)
            panic("%s: pc %zu writes r%u >= numRegs %u", name.c_str(), pc,
                  ins.dst, numRegs);
        const int n = instrSourceRegs(ins, srcs);
        for (int i = 0; i < n; i++) {
            if (srcs[i] >= numRegs)
                panic("%s: pc %zu reads r%u >= numRegs %u", name.c_str(),
                      pc, srcs[i], numRegs);
        }
        if (ins.pred != noPred && ins.pred >= numPreds)
            panic("%s: pc %zu guarded by p%u >= numPreds %u", name.c_str(),
                  pc, ins.pred, numPreds);
        if ((ins.op == Op::Bra || ins.op == Op::Ssy) &&
            (ins.target < 0 ||
             static_cast<size_t>(ins.target) > code.size())) {
            panic("%s: pc %zu branch target %d out of range", name.c_str(),
                  pc, ins.target);
        }
        if (ins.op == Op::Set && ins.dstIsPred && ins.dst >= numPreds)
            panic("%s: pc %zu sets p%u >= numPreds %u", name.c_str(), pc,
                  ins.dst, numPreds);
        if (const char *cls = aluTypeError(ins))
            panic("%s: pc %zu: op %s not valid on %s", name.c_str(), pc,
                  opName(ins.op), cls);
        if (ins.op == Op::St && ins.space != Space::Global &&
            ins.space != Space::Shared)
            panic("%s: pc %zu: store to read-only space", name.c_str(), pc);
    }
    if (code.empty() || code.back().op != Op::Exit)
        panic("%s: program must end with exit", name.c_str());
    if (!debug.pcLabel.empty() && debug.pcLabel.size() != code.size())
        panic("%s: debug pcLabel covers %zu of %zu instructions",
              name.c_str(), debug.pcLabel.size(), code.size());
    for (uint16_t id : debug.pcLabel) {
        if (id >= debug.labels.size())
            panic("%s: debug label id %u out of range", name.c_str(), id);
    }
}

} // namespace tango::sim
