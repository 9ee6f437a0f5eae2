#include "sim/interp.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <type_traits>

#include "common/logging.hh"
#include "sim/digest.hh"

namespace tango::sim {

namespace {

/** splitmix64 finalizer, used to derive the per-lane digest salts. */
constexpr uint64_t
splitmix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

constexpr std::array<uint64_t, warpSize>
makeLaneSalts()
{
    std::array<uint64_t, warpSize> s{};
    for (uint32_t i = 0; i < warpSize; i++)
        s[i] = splitmix64(i);
    return s;
}

/** Distinct salt per lane so the address digest is sensitive to which
 *  lane issued which address, not just the address multiset. */
constexpr std::array<uint64_t, warpSize> kLaneSalt = makeLaneSalts();

/** All 32 lanes active. */
constexpr Mask kFullMask = 0xffffffffu;

/**
 * Apply @p f to every active lane of @p exec in ascending lane order.
 *
 * Full warps — the overwhelmingly common case in the dense kernels — take
 * a plain counted loop the compiler can unroll and vectorize; sparse
 * masks fall back to bit iteration.  Identical visit order either way.
 */
template <typename F>
inline void
forLanes(Mask exec, F &&f)
{
    if (exec == kFullMask) {
        for (uint32_t lane = 0; lane < warpSize; lane++)
            f(lane);
    } else {
        for (Mask m = exec; m; m &= m - 1)
            f(static_cast<uint32_t>(std::countr_zero(m)));
    }
}

inline float
asF32(uint32_t u)
{
    return std::bit_cast<float>(u);
}

inline uint32_t
asU32(float f)
{
    return std::bit_cast<uint32_t>(f);
}

/** Canonicalize a 32-bit value to its storage form for narrow types. */
inline uint32_t
canonical(DType t, uint32_t v)
{
    switch (t) {
      case DType::U16:
        return v & 0xffffu;
      case DType::S16:
        return static_cast<uint32_t>(
            static_cast<int32_t>(static_cast<int16_t>(v & 0xffffu)));
      default:
        return v;
    }
}

inline bool
isSigned(DType t)
{
    return t == DType::S32 || t == DType::S16;
}

inline bool
isFloat(DType t)
{
    return t == DType::F32;
}

/**
 * Full-warp f32 fused multiply-add over three register rows (the RNN cell
 * kernels' hottest instruction).
 *
 * Multi-versioned: on hosts with FMA3 the "fma" clone vectorizes to packed
 * vfmadd; the default clone lowers to libm's fmaf.  Both are IEEE
 * correctly rounded, so every clone produces bit-identical results and
 * simulated values do not depend on the host ISA.  The destination row may
 * alias a source row (accumulate form "mad d, a, b, d"), which is safe:
 * the op is elementwise over the same index.
 *
 * Not multi-versioned under ThreadSanitizer: target_clones emits an ifunc
 * whose instrumented resolver runs at relocation time, before the tsan
 * runtime has set up its thread state — every binary linking this TU then
 * segfaults in __tsan_func_entry before main.  The clones are
 * bit-identical anyway, so sanitized builds just take the default path.
 */
#if !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("default", "fma")))
#endif
void
madWarpF32(uint32_t *dp, const uint32_t *a, const uint32_t *b,
           const uint32_t *c)
{
    for (uint32_t l = 0; l < warpSize; l++)
        dp[l] =
            asU32(__builtin_fmaf(asF32(a[l]), asF32(b[l]), asF32(c[l])));
}

/** Record destination of runFunctionalSegment(): none. */
struct NoRecord
{
};

/** A one-record destination: step() runs one instruction. */
struct OneRecord
{
    uint32_t words[rec::kMaxRecordWords];
    bool used = false;

    uint32_t *reserve()
    {
        if (used)
            return nullptr;
        used = true;
        return words;
    }
    void commit(uint32_t) {}
};

/** @return the grid coordinates of linear CTA index @p linear. */
Dim3
ctaCoord(const Dim3 &grid, uint64_t linear)
{
    Dim3 c;
    c.x = static_cast<uint32_t>(linear % grid.x);
    c.y = static_cast<uint32_t>((linear / grid.x) % grid.y);
    c.z = static_cast<uint32_t>(linear / (uint64_t(grid.x) * grid.y));
    return c;
}

} // namespace

uint32_t
coalesceSegments(const uint32_t addrs[warpSize], Mask exec,
                 uint32_t out[warpSize])
{
    uint32_t n = 0;
    uint32_t last = 0;
    bool haveLast = false;
    for (Mask m = exec; m; m &= m - 1) {
        const uint32_t lane = static_cast<uint32_t>(std::countr_zero(m));
        const uint32_t seg = addrs[lane] & ~127u;
        if (haveLast && seg == last)
            continue;
        bool found = false;
        for (uint32_t s = 0; s < n; s++) {
            if (out[s] == seg) {
                found = true;
                break;
            }
        }
        if (!found)
            out[n++] = seg;
        last = seg;
        haveLast = true;
    }
    return n;
}

WarpExec::WarpExec(const KernelLaunch &launch, Dim3 cta_id,
                   uint32_t warp_in_cta, DeviceMemory &gmem,
                   std::vector<uint8_t> &smem, const DecodedProgram *dec)
    : launch_(launch), prog_(*launch.program), dec_(dec), gmem_(gmem),
      smem_(smem), ctaId_(cta_id), warpInCta_(warp_in_cta)
{
    if (!dec_) {
        ownDec_ = std::make_unique<DecodedProgram>(prog_);
        dec_ = ownDec_.get();
    }
    regs_.assign(size_t(prog_.numRegs) * warpSize, 0);
    preds_.assign(std::max<uint32_t>(prog_.numPreds, 1), 0);

    const Dim3 &b = launch_.block;
    const uint32_t threads = static_cast<uint32_t>(b.count());
    active_ = 0;
    for (uint32_t lane = 0; lane < warpSize; lane++) {
        const uint32_t linear = warp_in_cta * warpSize + lane;
        if (linear >= threads) {
            tidX_[lane] = tidY_[lane] = tidZ_[lane] = 0;
            continue;
        }
        tidX_[lane] = linear % b.x;
        tidY_[lane] = (linear / b.x) % b.y;
        tidZ_[lane] = linear / (b.x * b.y);
        active_ |= (1u << lane);
    }
    done_ = (active_ == 0) || prog_.code.empty();
}

uint32_t
WarpExec::readReg(uint32_t lane, uint8_t r) const
{
    return regs_[size_t(r) * warpSize + lane];
}

void
WarpExec::writeReg(uint32_t lane, uint8_t r, uint32_t v)
{
    regs_[size_t(r) * warpSize + lane] = v;
}

uint32_t
WarpExec::operand(uint32_t lane, const Instr &ins, int i) const
{
    return ins.src[i] == Instr::immReg ? ins.imm : readReg(lane, ins.src[i]);
}

void
WarpExec::resolve()
{
    // Lanes that executed Exit are recorded by clearing them from every
    // mask as entries are popped; active_ lanes are always live.
    while (!done_) {
        if (rpc_ >= 0 && pc_ == static_cast<uint32_t>(rpc_)) {
            TANGO_ASSERT(!stack_.empty(), "reconvergence with empty stack");
            StackEntry e = stack_.back();
            stack_.pop_back();
            pc_ = e.pc;
            rpc_ = e.rpc;
            active_ = e.mask;
            continue;
        }
        if (active_ == 0) {
            if (stack_.empty()) {
                done_ = true;
                break;
            }
            StackEntry e = stack_.back();
            stack_.pop_back();
            pc_ = e.pc;
            rpc_ = e.rpc;
            active_ = e.mask;
            continue;
        }
        break;
    }
}

void
WarpExec::foldAddrs(Mask exec, const uint32_t addrs[warpSize])
{
    // Lane-salted combine: each active lane's address hashes
    // independently (no loop-carried multiply chain) and the products
    // XOR-merge, so the fold costs one round of ILP-friendly multiplies
    // instead of a 32-deep serial FNV chain.
    uint64_t acc = 0;
    forLanes(exec, [&](uint32_t lane) {
        acc ^= (uint64_t(addrs[lane]) ^ kLaneSalt[lane]) *
               0x9e3779b97f4a7c15ull;
    });
    digest::mix(streamHash_, acc);
}

uint32_t
WarpExec::laneAddrs(const Instr &ins, Mask exec,
                    uint32_t addrs[warpSize]) const
{
    const uint32_t *a0 = ins.src[0] == Instr::immReg
                             ? nullptr
                             : &regs_[size_t(ins.src[0]) * warpSize];
    uint32_t maxAddr = 0;
    forLanes(exec, [&](uint32_t lane) {
        // Immediate-only addressing: base is 0, offset is the imm.
        const uint32_t addr = (a0 ? a0[lane] : 0) + ins.imm;
        addrs[lane] = addr;
        maxAddr = std::max(maxAddr, addr);
    });
    return maxAddr;
}

Step
WarpExec::step()
{
    OneRecord out;
    if (stepT(out) == SegEnd::Retired && !out.used) {
        Step st;
        st.warpDone = true;
        return st;
    }
    const uint32_t *r = out.words;
    const Instr &ins = prog_.code[rec::pc(r)];
    Step st;
    st.op = ins.op;
    st.space = ins.space;
    st.activeCount = rec::activeCount(r);
    st.warpDone = rec::retired(r);
    if (ins.op == Op::Ld || ins.op == Op::St) {
        if (ins.space == Space::Global)
            st.numSegments = rec::addrWords(r);
        st.sharedSerialization = rec::sharedSerialization(r);
        st.constUniform =
            ins.space != Space::Const || rec::constBroadcast(r);
    }
    st.controlTransfer = rec::controlTransfer(r);
    return st;
}

SegEnd
WarpExec::runRecorded(RingWriter &out)
{
    return stepT(out);
}

SegEnd
WarpExec::runFunctionalSegment()
{
    NoRecord none;
    return stepT(none);
}

template <typename Out>
SegEnd
WarpExec::stepT(Out &out)
{
  // Loops here until the warp retires or consumes a Bar (or the record
  // destination is full), paying the call and frame setup once per run
  // instead of once per instruction.
  constexpr bool Timing = !std::is_same_v<Out, NoRecord>;
  for (;;) {
    resolveFast();
    if (done_)
        return SegEnd::Retired;
    // The record is written in place: header words once the instruction
    // has executed, address words as the access is shaped.
    uint32_t *r = nullptr;
    if constexpr (Timing) {
        r = out.reserve();
        if (r == nullptr)
            return SegEnd::Paused;
    }
    const uint32_t issuePc = pc_;
    const Instr &ins = prog_.code[pc_];
    const DecodedInstr &dec = (*dec_)[pc_];

    // Guard predicate (for Bra the predicate is the branch condition and is
    // handled below instead).
    Mask exec = active_;
    if (ins.pred != noPred && ins.op != Op::Bra) {
        const Mask pv = preds_[ins.pred];
        exec &= ins.predNeg ? ~pv : pv;
    }
    uint32_t activeCount = static_cast<uint32_t>(std::popcount(exec));
    uint32_t addrWords = 0;
    uint32_t sharedSer = 1;
    uint32_t flags = 0;

    // Fold the issue point: pc pins the static instruction (opcode, unit,
    // type, memory space), the mask pins which lanes executed it.
    if (hashing_)
        digest::mix(streamHash_, (uint64_t(pc_) << 32) | exec);

    uint32_t next_pc = pc_ + 1;
    // A value-dead instruction of a valuesUnobserved launch keeps its
    // issue, addresses, bounds checks and digest folds but drops its
    // data: no result write, load copy or store write (see
    // DecodedInstr::valueDead for why no statistic can tell).
    const bool dead = launch_.valuesUnobserved && dec.valueDead;

    switch (ins.op) {
      case Op::Nop:
      case Op::Retp:
      case Op::Callp:
      case Op::Bar:
        break;

      case Op::Ssy:
        stack_.push_back({static_cast<uint32_t>(ins.target), rpc_, active_,
                          true});
        rpc_ = ins.target;
        break;

      case Op::Exit: {
        // Exec-masked lanes retire.  Remaining lanes (if any) continue; if
        // none remain the resolver pops pending paths or retires the warp.
        const Mask dying = exec;
        active_ &= ~dying;
        for (auto &e : stack_)
            e.mask &= ~dying;
        // Surviving guarded-off lanes fall through; if none survive the
        // resolver pops pending paths or retires the warp.
        break;
      }

      case Op::Bra: {
        Mask taken = active_;
        if (ins.pred != noPred) {
            const Mask pv = preds_[ins.pred];
            taken &= ins.predNeg ? ~pv : pv;
        }
        const Mask not_taken = active_ & ~taken;
        flags = taken != 0 ? rec::kControlTransfer : 0;
        if (taken == active_) {
            next_pc = static_cast<uint32_t>(ins.target);
        } else if (taken == 0) {
            next_pc = pc_ + 1;
        } else {
            // Divergence: continue on the taken path, queue the rest.
            stack_.push_back({pc_ + 1, rpc_, not_taken, false});
            active_ = taken;
            next_pc = static_cast<uint32_t>(ins.target);
        }
        activeCount = static_cast<uint32_t>(std::popcount(active_));
        // Fold the outcome too: the continuation pc and surviving mask pin
        // the taken set even when a guard at the target would mask it.
        if (hashing_)
            digest::mix(streamHash_, (uint64_t(next_pc) << 32) | active_);
        break;
      }

      case Op::Mov: {
        if (dead)
            break;
        if (ins.sreg != SReg::None) {
            forLanes(exec, [&](uint32_t lane) {
                uint32_t v = 0;
                switch (ins.sreg) {
                  case SReg::TidX: v = tidX_[lane]; break;
                  case SReg::TidY: v = tidY_[lane]; break;
                  case SReg::TidZ: v = tidZ_[lane]; break;
                  case SReg::CtaIdX: v = ctaId_.x; break;
                  case SReg::CtaIdY: v = ctaId_.y; break;
                  case SReg::CtaIdZ: v = ctaId_.z; break;
                  case SReg::NTidX: v = launch_.block.x; break;
                  case SReg::NTidY: v = launch_.block.y; break;
                  case SReg::NTidZ: v = launch_.block.z; break;
                  case SReg::LaneId: v = lane; break;
                  case SReg::WarpId: v = warpInCta_; break;
                  case SReg::None: break;
                }
                writeReg(lane, ins.dst, v);
            });
        } else {
            forLanes(exec, [&](uint32_t lane) {
                writeReg(lane, ins.dst, operand(lane, ins, 0));
            });
        }
        break;
      }

      case Op::Ld: {
        const uint32_t bytes = dtypeBytes(ins.type);
        const uint8_t *base = nullptr;
        uint64_t limit = 0;
        switch (ins.space) {
          case Space::Global:
            base = gmem_.data();
            limit = gmem_.backed();
            break;
          case Space::Shared:
            base = smem_.data();
            limit = smem_.size();
            break;
          case Space::Const:
            base = launch_.constData.data();
            limit = launch_.constData.size();
            break;
          case Space::Param:
            base = reinterpret_cast<const uint8_t *>(launch_.params.data());
            limit = launch_.params.size() * 4;
            break;
        }
        // Addresses and their max first (vectorizable), one bounds
        // assert, then unchecked per-lane copies.
        uint32_t addrs[warpSize];
        const uint32_t maxAddr = laneAddrs(ins, exec, addrs);
        TANGO_ASSERT(exec == 0 || uint64_t(maxAddr) + bytes <= limit,
                     "load out of range");
        uint32_t *dp = &regs_[size_t(ins.dst) * warpSize];
        if (dead) {
            // Addresses only: nothing reads the loaded value.
        } else if (bytes == 4) {
            // Word loads (f32/u32/s32) dominate: no narrowing.
            forLanes(exec, [&](uint32_t lane) {
                std::memcpy(&dp[lane], base + addrs[lane], 4);
            });
        } else {
            forLanes(exec, [&](uint32_t lane) {
                uint32_t raw = 0;
                std::memcpy(&raw, base + addrs[lane], bytes);
                dp[lane] = canonical(ins.type, raw);
            });
        }
        if (hashing_)
            foldAddrs(exec, addrs);
        // Access shaping for the memory model (timing runs only).
        if constexpr (Timing) {
            if (ins.space == Space::Global) {
                addrWords = coalesceSegments(addrs, exec,
                                             r + rec::kHeaderWords);
            } else if (ins.space == Space::Shared) {
                // Bank-conflict count.  A touched-bank mask replaces the
                // "count == 0" first-touch test so the per-bank arrays
                // need no zeroing; conflict counts are unchanged (distinct
                // addresses hitting one bank serialize, broadcasts of one
                // address don't).
                uint32_t perBank[warpSize];
                uint32_t bankAddr[warpSize];
                Mask touched = 0;
                uint32_t maxSer = 1;
                for (Mask m = exec; m; m &= m - 1) {
                    const auto lane =
                        static_cast<uint32_t>(std::countr_zero(m));
                    const uint32_t bank = (addrs[lane] / 4) % warpSize;
                    if (!(touched & (1u << bank)) ||
                        bankAddr[bank] != addrs[lane]) {
                        perBank[bank] =
                            (touched & (1u << bank)) ? perBank[bank] + 1
                                                     : 1;
                        touched |= 1u << bank;
                        bankAddr[bank] = addrs[lane];
                    }
                    if (perBank[bank] > maxSer)
                        maxSer = perBank[bank];
                }
                sharedSer = maxSer;
            } else if (ins.space == Space::Const) {
                uint32_t first = 0;
                bool haveFirst = false;
                flags = rec::kConstBroadcast;
                for (Mask m = exec; m; m &= m - 1) {
                    const auto lane =
                        static_cast<uint32_t>(std::countr_zero(m));
                    if (!haveFirst) {
                        first = addrs[lane];
                        haveFirst = true;
                    } else if (addrs[lane] != first) {
                        flags = 0;
                        break;
                    }
                }
                // The constant-cache model probes lane 0's address.
                r[rec::kHeaderWords] = first;
                addrWords = 1;
            }
        }
        break;
      }

      case Op::St: {
        // Program::validate() refuses stores to Const and Param.
        const bool global = ins.space == Space::Global;
        uint8_t *base = global ? gmem_.data() : smem_.data();
        const uint64_t limit = global ? gmem_.backed() : smem_.size();
        const uint32_t bytes = dtypeBytes(ins.type);
        uint32_t addrs[warpSize];
        const uint32_t maxAddr = laneAddrs(ins, exec, addrs);
        TANGO_ASSERT(exec == 0 || uint64_t(maxAddr) + bytes <= limit,
                     "store out of range");
        const uint32_t *v1 = ins.src[1] == Instr::immReg
                                 ? nullptr
                                 : &regs_[size_t(ins.src[1]) * warpSize];
        const uint32_t imm = ins.imm;
        if (dead) {
            // Addresses only: nothing reads the stored value.
        } else if (bytes == 4) {
            forLanes(exec, [&](uint32_t lane) {
                const uint32_t val = v1 ? v1[lane] : imm;
                std::memcpy(base + addrs[lane], &val, 4);
            });
        } else {
            forLanes(exec, [&](uint32_t lane) {
                const uint32_t val = v1 ? v1[lane] : imm;
                std::memcpy(base + addrs[lane], &val, bytes);
            });
        }
        if (hashing_)
            foldAddrs(exec, addrs);
        if constexpr (Timing) {
            if (ins.space == Space::Global)
                addrWords = coalesceSegments(addrs, exec,
                                             r + rec::kHeaderWords);
        }
        break;
      }

      case Op::Set: {
        if (dead)
            break;
        // Operand rows hoisted out of the lane loop (same trick as the
        // arithmetic path below); values match operand() lane for lane.
        const uint32_t imm = ins.imm;
        const uint32_t *s0 = ins.src[0] == Instr::immReg
                                 ? nullptr
                                 : &regs_[size_t(ins.src[0]) * warpSize];
        const uint32_t *s1 = ins.src[1] == Instr::immReg
                                 ? nullptr
                                 : &regs_[size_t(ins.src[1]) * warpSize];
        const Cmp cmp = ins.cmp;
        const DType t = ins.type;
        // The (type class, comparison) dispatch hoists out of the lane
        // loop: runSet instantiates one tight loop per concrete
        // comparator (f32, signed or unsigned; narrow types are stored
        // canonicalized, so 32-bit signed/unsigned compares are exact for
        // them too).
        const auto runSet = [&](auto cmpf) {
            if (ins.dstIsPred) {
                Mask result = preds_[ins.dst] & ~exec;
                forLanes(exec, [&](uint32_t lane) {
                    if (cmpf(s0 ? s0[lane] : imm, s1 ? s1[lane] : imm))
                        result |= (1u << lane);
                });
                preds_[ins.dst] = result;
            } else {
                uint32_t *dp = &regs_[size_t(ins.dst) * warpSize];
                forLanes(exec, [&](uint32_t lane) {
                    dp[lane] =
                        cmpf(s0 ? s0[lane] : imm, s1 ? s1[lane] : imm)
                            ? 1u
                            : 0u;
                });
            }
        };
        const auto dispatchCmp = [&](auto conv) {
            switch (cmp) {
              case Cmp::Eq:
                runSet([conv](uint32_t a, uint32_t b) {
                    return conv(a) == conv(b);
                });
                break;
              case Cmp::Ne:
                runSet([conv](uint32_t a, uint32_t b) {
                    return conv(a) != conv(b);
                });
                break;
              case Cmp::Lt:
                runSet([conv](uint32_t a, uint32_t b) {
                    return conv(a) < conv(b);
                });
                break;
              case Cmp::Le:
                runSet([conv](uint32_t a, uint32_t b) {
                    return conv(a) <= conv(b);
                });
                break;
              case Cmp::Gt:
                runSet([conv](uint32_t a, uint32_t b) {
                    return conv(a) > conv(b);
                });
                break;
              case Cmp::Ge:
                runSet([conv](uint32_t a, uint32_t b) {
                    return conv(a) >= conv(b);
                });
                break;
            }
        };
        if (isFloat(t)) {
            dispatchCmp([](uint32_t v) { return asF32(v); });
        } else if (isSigned(t)) {
            dispatchCmp(
                [](uint32_t v) { return static_cast<int32_t>(v); });
        } else {
            dispatchCmp([](uint32_t v) { return v; });
        }
        break;
      }

      case Op::Selp: {
        if (dead)
            break;
        const Mask pv = preds_[ins.src[2]];
        for (Mask m = exec; m; m &= m - 1) {
            const auto lane = static_cast<uint32_t>(std::countr_zero(m));
            const bool take = (pv >> lane) & 1u;
            writeReg(lane, ins.dst,
                     take ? operand(lane, ins, 0) : operand(lane, ins, 1));
        }
        break;
      }

      default: {
        // Arithmetic / logic with up to three operands.  Operand register
        // rows and the opcode dispatch are hoisted out of the lane loop;
        // the hottest opcodes get dedicated loops and everything else falls
        // through to the generic per-lane evaluator below.  Results are
        // identical lane for lane.  Program::validate() has refused every
        // opcode/type pair the evaluator has no case for.
        if (dead)
            break;
        const int nsrc = dec.nsrc;
        const uint32_t imm = ins.imm;
        const uint32_t *s0 = ins.src[0] == Instr::immReg
                                 ? nullptr
                                 : &regs_[size_t(ins.src[0]) * warpSize];
        const uint32_t *s1 = nsrc > 1 && ins.src[1] != Instr::immReg
                                 ? &regs_[size_t(ins.src[1]) * warpSize]
                                 : nullptr;
        const uint32_t *s2 = nsrc > 2 && ins.src[2] != Instr::immReg
                                 ? &regs_[size_t(ins.src[2]) * warpSize]
                                 : nullptr;
        const uint32_t bDef =
            nsrc > 1 && ins.src[1] == Instr::immReg ? imm : 0;
        const uint32_t cDef =
            nsrc > 2 && ins.src[2] == Instr::immReg ? imm : 0;
        uint32_t *dp = &regs_[size_t(ins.dst) * warpSize];
        const auto srcA = [&](uint32_t l) { return s0 ? s0[l] : imm; };
        const auto srcB = [&](uint32_t l) { return s1 ? s1[l] : bDef; };
        const auto srcC = [&](uint32_t l) { return s2 ? s2[l] : cDef; };
        const bool f32 = isFloat(ins.type);
        const bool narrow =
            ins.type == DType::U16 || ins.type == DType::S16;
        const auto wr = [&](uint32_t l, uint32_t r) {
            dp[l] = narrow ? canonical(ins.type, r) : r;
        };
        bool handled = true;
        switch (ins.op) {
          case Op::Mad:
            if (f32) {
                if (exec == kFullMask && s0 && s1 && s2) {
                    madWarpF32(dp, s0, s1, s2);
                } else {
                    forLanes(exec, [&](uint32_t l) {
                        dp[l] = asU32(std::fmaf(asF32(srcA(l)),
                                                asF32(srcB(l)),
                                                asF32(srcC(l))));
                    });
                }
            } else {
                forLanes(exec, [&](uint32_t l) {
                    wr(l, srcA(l) * srcB(l) + srcC(l));
                });
            }
            break;
          case Op::Mad24:
            forLanes(exec, [&](uint32_t l) {
                wr(l, (srcA(l) & 0xffffffu) * (srcB(l) & 0xffffffu) +
                          srcC(l));
            });
            break;
          case Op::Add:
            if (f32) {
                forLanes(exec, [&](uint32_t l) {
                    dp[l] = asU32(asF32(srcA(l)) + asF32(srcB(l)));
                });
            } else {
                forLanes(exec, [&](uint32_t l) {
                    wr(l, srcA(l) + srcB(l));
                });
            }
            break;
          case Op::Sub:
            if (f32) {
                forLanes(exec, [&](uint32_t l) {
                    dp[l] = asU32(asF32(srcA(l)) - asF32(srcB(l)));
                });
            } else {
                forLanes(exec, [&](uint32_t l) {
                    wr(l, srcA(l) - srcB(l));
                });
            }
            break;
          case Op::Mul:
            if (f32) {
                forLanes(exec, [&](uint32_t l) {
                    dp[l] = asU32(asF32(srcA(l)) * asF32(srcB(l)));
                });
            } else {
                forLanes(exec, [&](uint32_t l) {
                    wr(l, srcA(l) * srcB(l));
                });
            }
            break;
          case Op::Min:
            if (f32) {
                forLanes(exec, [&](uint32_t l) {
                    dp[l] = asU32(std::fmin(asF32(srcA(l)), asF32(srcB(l))));
                });
            } else if (isSigned(ins.type)) {
                forLanes(exec, [&](uint32_t l) {
                    wr(l, static_cast<uint32_t>(
                              std::min(static_cast<int32_t>(srcA(l)),
                                       static_cast<int32_t>(srcB(l)))));
                });
            } else {
                forLanes(exec, [&](uint32_t l) {
                    wr(l, std::min(srcA(l), srcB(l)));
                });
            }
            break;
          case Op::Max:
            if (f32) {
                forLanes(exec, [&](uint32_t l) {
                    dp[l] = asU32(std::fmax(asF32(srcA(l)), asF32(srcB(l))));
                });
            } else if (isSigned(ins.type)) {
                forLanes(exec, [&](uint32_t l) {
                    wr(l, static_cast<uint32_t>(
                              std::max(static_cast<int32_t>(srcA(l)),
                                       static_cast<int32_t>(srcB(l)))));
                });
            } else {
                forLanes(exec, [&](uint32_t l) {
                    wr(l, std::max(srcA(l), srcB(l)));
                });
            }
            break;
          case Op::Shl:
            forLanes(exec, [&](uint32_t l) {
                wr(l, srcA(l) << (srcB(l) & 31u));
            });
            break;
          case Op::And:
            forLanes(exec, [&](uint32_t l) {
                wr(l, srcA(l) & srcB(l));
            });
            break;
          case Op::Or:
            forLanes(exec, [&](uint32_t l) {
                wr(l, srcA(l) | srcB(l));
            });
            break;
          default:
            handled = false;
            break;
        }
        if (handled)
            break;
        for (Mask m = exec; m; m &= m - 1) {
            const auto lane = static_cast<uint32_t>(std::countr_zero(m));
            const uint32_t a = operand(lane, ins, 0);
            const uint32_t b = nsrc > 1 ? operand(lane, ins, 1) : 0;
            const uint32_t c = nsrc > 2 ? operand(lane, ins, 2) : 0;
            uint32_t r = 0;
            if (isFloat(ins.type)) {
                const float x = asF32(a), y = asF32(b), z = asF32(c);
                float f = 0.0f;
                switch (ins.op) {
                  case Op::Add: f = x + y; break;
                  case Op::Sub: f = x - y; break;
                  case Op::Mul: f = x * y; break;
                  case Op::Div: f = x / y; break;
                  case Op::Mad: f = std::fmaf(x, y, z); break;
                  case Op::Min: f = std::fmin(x, y); break;
                  case Op::Max: f = std::fmax(x, y); break;
                  case Op::Abs: f = std::fabs(x); break;
                  case Op::Rcp: f = 1.0f / x; break;
                  case Op::Rsqrt: f = 1.0f / std::sqrt(x); break;
                  case Op::Sqrt: f = std::sqrt(x); break;
                  case Op::Ex2: f = std::exp2(x); break;
                  case Op::Lg2: f = std::log2(x); break;
                  case Op::Cvt:
                    // f32 <- integer source
                    f = isSigned(ins.type2)
                            ? static_cast<float>(static_cast<int32_t>(a))
                            : static_cast<float>(a);
                    break;
                  default:
                    break;
                }
                r = asU32(f);
            } else {
                switch (ins.op) {
                  case Op::Add: r = a + b; break;
                  case Op::Sub: r = a - b; break;
                  case Op::Mul: r = a * b; break;
                  case Op::Div:
                    if (isSigned(ins.type)) {
                        r = b ? static_cast<uint32_t>(
                                    static_cast<int32_t>(a) /
                                    static_cast<int32_t>(b))
                              : 0;
                    } else {
                        r = b ? a / b : 0;
                    }
                    break;
                  case Op::Mad: r = a * b + c; break;
                  case Op::Mad24:
                    r = (a & 0xffffffu) * (b & 0xffffffu) + c;
                    break;
                  case Op::Min:
                    r = isSigned(ins.type)
                            ? static_cast<uint32_t>(
                                  std::min(static_cast<int32_t>(a),
                                           static_cast<int32_t>(b)))
                            : std::min(a, b);
                    break;
                  case Op::Max:
                    r = isSigned(ins.type)
                            ? static_cast<uint32_t>(
                                  std::max(static_cast<int32_t>(a),
                                           static_cast<int32_t>(b)))
                            : std::max(a, b);
                    break;
                  case Op::Abs:
                    r = isSigned(ins.type)
                            ? static_cast<uint32_t>(
                                  std::abs(static_cast<int32_t>(a)))
                            : a;
                    break;
                  case Op::And: r = a & b; break;
                  case Op::Or: r = a | b; break;
                  case Op::Xor: r = a ^ b; break;
                  case Op::Not: r = ~a; break;
                  case Op::Shl: r = a << (b & 31u); break;
                  case Op::Shr:
                    r = isSigned(ins.type)
                            ? static_cast<uint32_t>(
                                  static_cast<int32_t>(a) >> (b & 31u))
                            : a >> (b & 31u);
                    break;
                  case Op::Cvt:
                    if (isFloat(ins.type2)) {
                        const float x = asF32(a);
                        r = isSigned(ins.type)
                                ? static_cast<uint32_t>(
                                      static_cast<int32_t>(x))
                                : static_cast<uint32_t>(
                                      x < 0.0f ? 0.0f : x);
                    } else {
                        r = a;
                    }
                    break;
                  default:
                    break;
                }
            }
            writeReg(lane, ins.dst, canonical(ins.type, r));
        }
        break;
      }
    }

    pc_ = next_pc;
    resolveFast();
    if constexpr (Timing) {
        r[0] = issuePc;
        r[1] = done_ ? rec::kRetired : pc_;
        r[2] = rec::pack(activeCount, addrWords, sharedSer, flags);
        if (done_) {
            r[rec::kHeaderWords + addrWords] =
                static_cast<uint32_t>(streamHash_);
            r[rec::kHeaderWords + addrWords + 1] =
                static_cast<uint32_t>(streamHash_ >> 32);
        }
        out.commit(rec::words(r));
    }
    if (done_)
        return SegEnd::Retired;
    if (ins.op == Op::Bar)
        return SegEnd::Bar;
  }
}

void
CtaExec::start(const KernelLaunch &launch, const DecodedProgram &dec,
               uint64_t linear_id, const std::vector<uint32_t> &warp_ids,
               DeviceMemory &gmem, bool hash)
{
    smem_.assign(std::max<uint32_t>(launch.program->smemBytes, 1), 0);
    const Dim3 coord = ctaCoord(launch.grid, linear_id);
    warps_.clear();
    waiting_.assign(warp_ids.size(), 0);
    live_ = 0;
    atBarrier_ = 0;
    for (uint32_t w : warp_ids) {
        warps_.push_back(
            std::make_unique<WarpExec>(launch, coord, w, gmem, smem_, &dec));
        if (hash)
            warps_.back()->enableStreamHash();
        if (!warps_.back()->done())
            live_++;
    }
}

uint64_t
runFunctionalOnly(const KernelLaunch &launch,
                  const std::vector<uint64_t> &cta_ids,
                  const std::vector<uint32_t> &warp_ids,
                  DeviceMemory &gmem)
{
    TANGO_ASSERT(launch.program != nullptr, "launch without program");
    const DecodedProgram decoded(*launch.program);
    uint64_t combined = digest::kInit;
    CtaExec cta;
    for (uint64_t linear : cta_ids) {
        cta.start(launch, decoded, linear, warp_ids, gmem, true);
        while (!cta.done()) {
            bool ran = false;
            const bool released = cta.sweep([&](size_t, WarpExec &we) {
                ran = true;
                return we.runFunctionalSegment();
            });
            // Every remaining warp is parked at a barrier that can no
            // longer be released — matches the timing core's deadlock
            // panic, so a memoized kernel cannot hide one.
            if (!ran && !released) {
                panic("functional replay deadlock in kernel %s",
                      launch.program->name.c_str());
            }
        }
        // Fold per-warp digests in (CTA order, warp order) position so
        // the combination is independent of the interleaving above.
        for (size_t i = 0; i < cta.numWarps(); i++)
            digest::mix(combined, cta.warp(i).streamHash());
    }
    return combined;
}

} // namespace tango::sim
