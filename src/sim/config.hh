/**
 * @file
 * GPU platform configurations (the paper's Table II) and the power-model
 * parameter block.
 *
 * Three presets mirror the platforms of the paper: the Pascal GP102
 * simulator configuration (GPGPU-Sim development branch), the Kepler GK210
 * server GPU, and the Maxwell Tegra X1 mobile GPU.
 */

#ifndef TANGO_SIM_CONFIG_HH
#define TANGO_SIM_CONFIG_HH

#include <cstdint>
#include <string>

namespace tango::sim {

/** Warp scheduling policies (paper Section IV-F). */
enum class SchedPolicy : uint8_t {
    GTO,  ///< greedy-then-oldest (GPGPU-Sim default)
    LRR,  ///< loose round-robin
    TLV   ///< two-level (active/pending queues)
};

/** @return "gto" / "lrr" / "tlv". */
const char *schedName(SchedPolicy p);

/** Parse a schedName() string (case-sensitive, lowercase).
 *  @return false (out untouched) on an unknown name. */
bool schedFromName(const std::string &name, SchedPolicy &out);

/** Per-event dynamic energies (picojoules) and static power (watts). */
struct PowerParams
{
    // Dynamic energy per event, in pJ.  Calibrated GPUWattch-style: a
    // warp instruction moves 32 lanes of data, so per-warp-event energies
    // are in the hundreds of pJ and a DRAM burst costs several nJ.
    double icAccess = 120.0;       ///< instruction cache read (per issue)
    double ibAccess = 40.0;        ///< instruction buffer access (per issue)
    double dcAccess = 320.0;       ///< L1 data cache access (per segment)
    double tcAccess = 200.0;       ///< texture cache access (unused by DNNs)
    double ccAccess = 90.0;        ///< constant cache access
    double shrdAccess = 160.0;     ///< shared memory access
    double rfOperand = 110.0;      ///< register file per warp-operand
    double spOp = 100.0;           ///< integer/simple ALU warp instruction
    double fpuOp = 220.0;          ///< fp32 warp instruction
    double sfuOp = 820.0;          ///< transcendental warp instruction
    double schedCycle = 60.0;      ///< scheduler arbitration per active cycle
    double l2Access = 900.0;       ///< L2 bank access
    double mcAccess = 500.0;       ///< memory-controller transaction
    double nocFlit = 350.0;        ///< one L1<->L2 interconnect transfer
    double dramAccess = 8000.0;    ///< one DRAM burst (line fill)
    double pipeIssue = 150.0;      ///< pipeline latch/drive per issue

    // Static / background power, in watts.
    double idleCoreW = 1.05;       ///< leakage per SM
    double constDynamicW = 0.45;   ///< clock tree etc. per SM while clocked
    double boardStaticW = 9.0;     ///< device-level constant draw
};

/** Full GPU configuration (one SM class replicated numSms times). */
struct GpuConfig
{
    std::string name;

    // Machine organization.
    uint32_t numSms = 28;
    uint32_t coresPerSm = 128;
    uint32_t maxWarpsPerSm = 64;
    uint32_t maxCtasPerSm = 32;
    uint32_t maxThreadsPerSm = 2048;
    uint32_t regFileBytesPerSm = 256 * 1024;
    uint32_t smemBytesPerSm = 96 * 1024;
    uint32_t issueWidth = 2;       ///< warp instructions issued per cycle
    uint32_t numSchedulers = 4;    ///< warp schedulers per SM

    // Memory system.
    uint32_t lineBytes = 128;
    uint32_t l1dBytes = 64 * 1024; ///< 0 = L1D bypassed
    uint32_t l1dAssoc = 4;
    uint32_t l1dMshrs = 32;
    uint32_t l1HitLatency = 28;
    uint32_t constCacheBytes = 8 * 1024;
    uint32_t constHitLatency = 10;
    uint32_t smemLatency = 24;
    uint32_t l2Bytes = 3 * 1024 * 1024;
    uint32_t l2Assoc = 16;
    uint32_t l2Mshrs = 64;
    uint32_t l2HitLatency = 190;
    uint32_t dramLatency = 230;    ///< additional cycles beyond L2
    double dramIssueInterval = 2.0;///< min core cycles between DRAM bursts

    // Clocks.
    double coreClockGhz = 1.48;

    // Scheduling.
    SchedPolicy scheduler = SchedPolicy::GTO;

    PowerParams power;

    /** @return concurrent CTAs per SM for a kernel footprint
     *  (threads/CTA, regs/thread, smem/CTA), honouring all four limits. */
    uint32_t occupancyCtas(uint32_t threads_per_cta, uint32_t regs_per_thread,
                           uint32_t smem_per_cta) const;
};

/**
 * @return "" if @p cfg can be simulated, else a one-line reason: a
 * configuration that would divide by zero, build a cache smaller than
 * one set, or otherwise hit internal asserts deep inside a launch.  The
 * one rule behind both Gpu's constructor/reconfigure() (which fatal()
 * on it) and rt::JobSpec::validate() (which refuses the job).
 */
std::string configError(const GpuConfig &cfg);

/** Pascal GP102 — the paper's GPGPU-Sim configuration (Table II). */
GpuConfig pascalGP102();

/** Kepler GK210 — the server GPU of Table II. */
GpuConfig keplerGK210();

/** Maxwell Tegra X1 — the mobile GPU of Table II. */
GpuConfig maxwellTX1();

} // namespace tango::sim

#endif // TANGO_SIM_CONFIG_HH
