/**
 * @file
 * ISA-level unit tests: opcode metadata, disassembly, program validation
 * and the static register-liveness analysis.
 */

#include <gtest/gtest.h>

#include "kernels/builder.hh"
#include "sim/isa.hh"
#include "sim/program.hh"

namespace tango::sim {
namespace {

TEST(Isa, OpNamesMatchPaperVocabulary)
{
    EXPECT_STREQ(opName(Op::Add), "add");
    EXPECT_STREQ(opName(Op::Mad), "mad");
    EXPECT_STREQ(opName(Op::Shl), "shl");
    EXPECT_STREQ(opName(Op::Ssy), "ssy");
    EXPECT_STREQ(opName(Op::Mad24), "mad24");
    EXPECT_STREQ(opName(Op::Rsqrt), "rsqrt");
    EXPECT_STREQ(opName(Op::Retp), "retp");
    EXPECT_STREQ(opName(Op::Callp), "callp");
}

TEST(Isa, EveryOpcodeHasMetadata)
{
    for (size_t i = 0; i < static_cast<size_t>(Op::NumOps); i++) {
        const Op op = static_cast<Op>(i);
        EXPECT_NE(std::string(opName(op)), "?");
        EXPECT_GT(opLatency(op), 0u);
    }
}

TEST(Isa, UnitAssignment)
{
    EXPECT_EQ(opUnit(Op::Add), Unit::SP);
    EXPECT_EQ(opUnit(Op::Ld), Unit::LDST);
    EXPECT_EQ(opUnit(Op::St), Unit::LDST);
    EXPECT_EQ(opUnit(Op::Rsqrt), Unit::SFU);
    EXPECT_EQ(opUnit(Op::Ex2), Unit::SFU);
    EXPECT_EQ(opUnit(Op::Bra), Unit::CTRL);
}

TEST(Isa, TypedUnitPromotesFloatAluToFpu)
{
    EXPECT_EQ(opUnitTyped(Op::Add, DType::F32), Unit::FPU);
    EXPECT_EQ(opUnitTyped(Op::Mad, DType::F32), Unit::FPU);
    EXPECT_EQ(opUnitTyped(Op::Add, DType::U32), Unit::SP);
    EXPECT_EQ(opUnitTyped(Op::Shl, DType::U32), Unit::SP);
    // Memory and SFU ops keep their unit regardless of type.
    EXPECT_EQ(opUnitTyped(Op::Ld, DType::F32), Unit::LDST);
    EXPECT_EQ(opUnitTyped(Op::Rcp, DType::F32), Unit::SFU);
}

TEST(Isa, DtypeBytes)
{
    EXPECT_EQ(dtypeBytes(DType::F32), 4u);
    EXPECT_EQ(dtypeBytes(DType::U32), 4u);
    EXPECT_EQ(dtypeBytes(DType::S32), 4u);
    EXPECT_EQ(dtypeBytes(DType::U16), 2u);
    EXPECT_EQ(dtypeBytes(DType::S16), 2u);
}

TEST(Isa, SourceRegsAndWrites)
{
    Instr add;
    add.op = Op::Add;
    add.dst = 3;
    add.src[0] = 1;
    add.src[1] = 2;
    uint8_t srcs[3];
    EXPECT_EQ(instrSourceRegs(add, srcs), 2);
    EXPECT_TRUE(instrWritesReg(add));

    Instr st;
    st.op = Op::St;
    st.src[0] = 4;
    st.src[1] = 5;
    EXPECT_EQ(instrSourceRegs(st, srcs), 2);
    EXPECT_FALSE(instrWritesReg(st));

    Instr addImm = add;
    addImm.src[1] = Instr::immReg;
    EXPECT_EQ(instrSourceRegs(addImm, srcs), 1);

    Instr bra;
    bra.op = Op::Bra;
    EXPECT_EQ(instrSourceRegs(bra, srcs), 0);
    EXPECT_FALSE(instrWritesReg(bra));
}

TEST(Isa, DisasmReadable)
{
    Instr mad;
    mad.op = Op::Mad;
    mad.type = DType::F32;
    mad.dst = 7;
    mad.src[0] = 1;
    mad.src[1] = 2;
    mad.src[2] = 3;
    const std::string text = disasm(mad);
    EXPECT_NE(text.find("mad.f32"), std::string::npos);
    EXPECT_NE(text.find("r7"), std::string::npos);
}

TEST(Program, ValidateAcceptsBuilderOutput)
{
    kern::Builder b("ok");
    kern::Reg x = b.immU(1);
    kern::Reg y = b.addi(DType::U32, x, 2);
    (void)y;
    auto p = b.finish();
    EXPECT_GE(p->numRegs, 2u);
    EXPECT_EQ(p->code.back().op, Op::Exit);
}

TEST(Program, ValidateRejectsBadRegister)
{
    Program p;
    p.name = "bad";
    p.numRegs = 1;
    Instr i;
    i.op = Op::Add;
    i.type = DType::U32;
    i.dst = 5;   // out of range
    i.src[0] = 0;
    i.src[1] = 0;
    p.code.push_back(i);
    Instr e;
    e.op = Op::Exit;
    p.code.push_back(e);
    EXPECT_DEATH(p.validate(), "writes");
}

TEST(Program, ValidateRejectsStoreToReadOnlySpace)
{
    Program p;
    p.name = "ststore";
    p.numRegs = 1;
    Instr st;
    st.op = Op::St;
    st.type = DType::U32;
    st.space = Space::Const;
    st.src[0] = Instr::immReg;
    st.src[1] = 0;
    Instr e;
    e.op = Op::Exit;
    p.code = {st, e};
    EXPECT_DEATH(p.validate(), "store to read-only space");
}

TEST(Program, ValidateRejectsOpOutsideItsTypeClass)
{
    Program p;
    p.name = "intsqrt";
    p.numRegs = 1;
    Instr sq;
    sq.op = Op::Sqrt;
    sq.type = DType::U32;
    Instr e;
    e.op = Op::Exit;
    p.code = {sq, e};
    EXPECT_DEATH(p.validate(), "op sqrt not valid on int");
}

TEST(Program, ValidateRequiresExit)
{
    Program p;
    p.name = "noexit";
    p.numRegs = 1;
    Instr i;
    i.op = Op::Nop;
    p.code.push_back(i);
    EXPECT_DEATH(p.validate(), "exit");
}

TEST(Program, MaxLiveRegsBounded)
{
    kern::Builder b("live");
    kern::Reg a = b.immU(1);
    kern::Reg c = b.immU(2);
    kern::Reg d = b.add(DType::U32, a, c);
    kern::Reg e = b.add(DType::U32, d, d);
    (void)e;
    auto p = b.finish();
    const uint32_t live = p->maxLiveRegs();
    EXPECT_GE(live, 2u);
    EXPECT_LE(live, p->numRegs);
}

TEST(Program, DisassembleListsAllInstructions)
{
    kern::Builder b("dis");
    b.immU(1);
    b.nop();
    auto p = b.finish();
    const std::string text = p->disassemble();
    size_t lines = 0;
    for (char ch : text)
        lines += (ch == '\n');
    EXPECT_EQ(lines, p->code.size());
}

TEST(Builder, LabelsAndBranches)
{
    kern::Builder b("loop");
    kern::Reg i = b.reg();
    b.forLoopI(i, 0, 5, [&] { b.nop(); });
    auto p = b.finish();
    // Must contain a backward branch.
    bool backward = false;
    for (size_t pc = 0; pc < p->code.size(); pc++) {
        const Instr &ins = p->code[pc];
        if (ins.op == Op::Bra && ins.target >= 0 &&
            static_cast<size_t>(ins.target) < pc) {
            backward = true;
        }
    }
    EXPECT_TRUE(backward);
}

TEST(Builder, RegisterReuseAfterRelease)
{
    kern::Builder b("reuse");
    kern::Reg a = b.immU(1);
    const uint8_t idx = a.idx;
    b.release(a);
    kern::Reg c = b.reg();
    EXPECT_EQ(c.idx, idx);
}

TEST(Builder, SharedAndConstantOffsets)
{
    kern::Builder b("mem");
    EXPECT_EQ(b.shared(100), 0u);
    EXPECT_EQ(b.shared(4), 100u);   // aligned to 4
    EXPECT_EQ(b.constant(3), 0u);
    EXPECT_EQ(b.constant(4), 4u);   // 3 rounded up to 4
    b.nop();
    auto p = b.finish();
    EXPECT_EQ(p->smemBytes, 104u);
    EXPECT_EQ(p->cmemBytes, 8u);
}

} // namespace
} // namespace tango::sim
