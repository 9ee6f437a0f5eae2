/**
 * @file
 * Issue-stall classification, using the same ten-category taxonomy nvprof
 * reports and the paper plots in Fig 7.
 *
 * Every cycle, every resident warp that does not issue is charged one stall
 * in exactly one category; warps that issue are charged nothing.  The
 * resulting distribution is the per-layer "stall cycle breakdown".
 */

#ifndef TANGO_SIM_STALL_HH
#define TANGO_SIM_STALL_HH

#include <cstddef>
#include <cstdint>

namespace tango::sim {

/** nvprof-style issue stall reasons. */
enum class Stall : uint8_t {
    InstFetch,              ///< next instruction not yet fetched (post-branch)
    ExecDependency,         ///< waiting on an ALU/SFU result
    MemoryDependency,       ///< waiting on a load result
    Texture,                ///< texture unit busy (unused by these kernels)
    Sync,                   ///< waiting at a barrier
    Other,                  ///< miscellaneous (drain, startup)
    PipeBusy,               ///< required functional unit busy
    ConstantMemoryDependency, ///< waiting on a constant-cache fill
    MemoryThrottle,         ///< MSHR/queue back-pressure
    NotSelected,            ///< issuable but another warp was picked
    NumStalls
};

inline constexpr size_t numStalls = static_cast<size_t>(Stall::NumStalls);

/** @return nvprof-style name ("memory_dependency", ...). */
const char *stallName(Stall s);

} // namespace tango::sim

#endif // TANGO_SIM_STALL_HH
