#include "sim/config.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tango::sim {

const char *
schedName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::GTO: return "gto";
      case SchedPolicy::LRR: return "lrr";
      case SchedPolicy::TLV: return "tlv";
    }
    return "?";
}

bool
schedFromName(const std::string &name, SchedPolicy &out)
{
    for (SchedPolicy p :
         {SchedPolicy::GTO, SchedPolicy::LRR, SchedPolicy::TLV}) {
        if (name == schedName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

std::string
configError(const GpuConfig &cfg)
{
    if (cfg.numSms == 0 || cfg.coresPerSm == 0)
        return "numSms and coresPerSm must be > 0";
    if (cfg.maxWarpsPerSm == 0 || cfg.maxCtasPerSm == 0 ||
        cfg.maxThreadsPerSm == 0) {
        return "SM occupancy limits must be > 0";
    }
    if (cfg.issueWidth == 0 || cfg.numSchedulers == 0)
        return "issueWidth and numSchedulers must be > 0";
    if (cfg.lineBytes == 0)
        return "lineBytes must be > 0";
    // A cache (0 bytes = absent) must hold at least one full set.
    const auto setError = [&](const char *what, uint32_t bytes,
                              uint32_t assoc) -> std::string {
        if (bytes == 0 ||
            (assoc > 0 && bytes >= uint64_t(cfg.lineBytes) * assoc))
            return "";
        return std::string(what) + " " + std::to_string(bytes) +
               " cannot hold one set of " + std::to_string(assoc) +
               "-way " + std::to_string(cfg.lineBytes) + "-byte lines";
    };
    if (std::string why = setError("l1dBytes", cfg.l1dBytes, cfg.l1dAssoc);
        !why.empty())
        return why;
    if (std::string why = setError("l2Bytes", cfg.l2Bytes, cfg.l2Assoc);
        !why.empty())
        return why;
    if (!(cfg.coreClockGhz > 0.0))
        return "coreClockGhz must be > 0";
    if (!(cfg.dramIssueInterval > 0.0))
        return "dramIssueInterval must be > 0";
    return "";
}

uint32_t
GpuConfig::occupancyCtas(uint32_t threads_per_cta, uint32_t regs_per_thread,
                         uint32_t smem_per_cta) const
{
    TANGO_ASSERT(threads_per_cta > 0, "empty CTA");
    uint32_t limit = maxCtasPerSm;
    limit = std::min(limit, maxThreadsPerSm / threads_per_cta);
    uint32_t warps = (threads_per_cta + 31) / 32;
    limit = std::min(limit, maxWarpsPerSm / std::max(1u, warps));
    uint32_t reg_bytes = std::max(1u, regs_per_thread) * 4 * threads_per_cta;
    limit = std::min(limit, regFileBytesPerSm / reg_bytes);
    if (smem_per_cta > 0)
        limit = std::min(limit, smemBytesPerSm / smem_per_cta);
    return std::max(1u, limit);
}

GpuConfig
pascalGP102()
{
    GpuConfig c;
    c.name = "GP102";
    c.numSms = 28;
    c.coresPerSm = 128;
    c.maxWarpsPerSm = 64;
    c.regFileBytesPerSm = 256 * 1024;
    c.smemBytesPerSm = 96 * 1024;
    c.l1dBytes = 64 * 1024;          // paper: 64KB default, 128/256 swept
    c.l2Bytes = 3 * 1024 * 1024;
    c.coreClockGhz = 1.48;
    c.scheduler = SchedPolicy::GTO;  // paper: gto default; lrr, tlv swept
    return c;
}

GpuConfig
keplerGK210()
{
    GpuConfig c;
    c.name = "GK210";
    c.numSms = 15;                   // 2880 cores / 192 per SMX
    c.coresPerSm = 192;
    c.maxWarpsPerSm = 64;
    c.regFileBytesPerSm = 512 * 1024;
    c.smemBytesPerSm = 128 * 1024;   // paper: 128KB shared/L1 per block
    c.l1dBytes = 48 * 1024;
    c.l2Bytes = 1536 * 1024;
    c.l2HitLatency = 220;
    c.dramLatency = 280;
    c.coreClockGhz = 0.875;
    c.issueWidth = 2;
    // Kepler-class process burns more static power per SM.
    c.power.idleCoreW = 1.9;
    c.power.constDynamicW = 0.8;
    c.power.boardStaticW = 18.0;
    return c;
}

GpuConfig
maxwellTX1()
{
    GpuConfig c;
    c.name = "TX1";
    c.numSms = 2;                    // 256 cores / 128 per SMM
    c.coresPerSm = 128;
    c.maxWarpsPerSm = 64;
    c.regFileBytesPerSm = 128 * 1024; // paper: 32768 regs
    c.smemBytesPerSm = 48 * 1024;
    c.l1dBytes = 24 * 1024;
    c.l2Bytes = 256 * 1024;
    c.l2HitLatency = 160;
    c.dramLatency = 300;             // LPDDR4
    c.dramIssueInterval = 6.0;       // much lower bandwidth than server GDDR
    c.coreClockGhz = 0.998;
    c.issueWidth = 2;
    // Mobile part: low leakage, but the whole-board draw (DRAM, SoC
    // fabric, regulators) that a Wattsup meter sees is a few watts.
    c.power.idleCoreW = 0.9;
    c.power.constDynamicW = 0.4;
    c.power.boardStaticW = 3.4;
    return c;
}

} // namespace tango::sim
