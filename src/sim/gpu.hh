/**
 * @file
 * The top-level virtual GPU: device memory + an SM model + the shared L2
 * and DRAM, with CTA sampling and whole-GPU extrapolation.
 *
 * One SM is simulated in cycle detail; statistics are scaled by
 * (total CTAs / simulated CTAs) and execution time is extrapolated by CTA
 * waves across all SMs, in the spirit of sampled simulation (the paper ran
 * full networks on GPGPU-Sim over many hours; the benches here must finish
 * in seconds).  Small kernels — and anything launched with
 * SimPolicy::fullSim — are simulated exactly and functionally.
 */

#ifndef TANGO_SIM_GPU_HH
#define TANGO_SIM_GPU_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/config.hh"
#include "sim/core.hh"
#include "sim/dram.hh"
#include "sim/frontend.hh"
#include "sim/memory.hh"
#include "sim/power.hh"
#include "sim/shard.hh"

namespace tango::sim {

/** A virtual GPU device. */
class Gpu
{
  public:
    /** @param cfg the platform to model.
     *  @throws ConfigError if configError() refuses @p cfg. */
    explicit Gpu(GpuConfig cfg);

    /** @return the device's global memory. */
    DeviceMemory &mem() { return mem_; }
    const DeviceMemory &mem() const { return mem_; }

    /** @return the platform configuration. */
    const GpuConfig &config() const { return cfg_; }

    /**
     * Switch the device to a new platform configuration (config sweeps,
     * worker reuse in rt::Engine).  Rebuilds the L2/DRAM memory system
     * unconditionally and cold-starts it, so no warm state or stale
     * cache geometry survives the switch.  Never call mid-launch.
     * @throws ConfigError if configError() refuses @p cfg; the device
     *         keeps its previous configuration.
     */
    void reconfigure(GpuConfig cfg);

    /**
     * Launch a kernel and simulate it under @p policy.
     *
     * With SimPolicy::memoize (the default, unless TANGO_NO_MEMO=1 is
     * set) repeated identical launches that have reached a provable
     * steady state are *replayed*: lanes execute functionally for real
     * values while the cached statistics of the steady-state simulation
     * are spliced in (KernelStats::replayed marks them).  A launch
     * carrying KernelLaunch::valuesUnobserved splices without executing
     * at all.  Statistics are bit-identical either way.
     *
     * @return complete, scaled statistics including power.
     * @throws TooManyWarpSlots if the launch would keep more than
     *         kMaxWarpSlots warps resident; CycleCapExceeded past
     *         SimPolicy::maxCycles.
     */
    KernelStats launch(const KernelLaunch &launch,
                       const SimPolicy &policy = {});

    /** @return the static (always-on) power of the whole device in W. */
    double staticPowerW(uint32_t active_sms) const;

    /** Drop all warm L2/DRAM state (e.g. between unrelated networks).
     *  Also drops every memoized launch baseline: memoization reasons
     *  about state continuity, which a cold start breaks. */
    void coldStart();

  private:
    /**
     * One launch signature's memoization record (see launch()).
     *
     * Lifecycle: occurrence 1 of a signature only counts (`seen`);
     * occurrences 2+ run fully *with* Step-stream hashing and an
     * end-of-launch µ-arch fingerprint; when two consecutive full
     * simulations produce bit-identical statistics, fingerprints and
     * stream hashes the entry arms, and later occurrences replay
     * (functional-only execution + cached statistics, or the statistics
     * alone for a valuesUnobserved launch).  Any divergence disarms and
     * re-baselines.
     */
    struct MemoEntry
    {
        uint64_t seen = 0;        ///< occurrences of this signature
        bool hasBaseline = false; ///< stats/fingerprint/streamHash valid
        bool armed = false;       ///< steady state confirmed; replay
        uint64_t fingerprint = 0; ///< end-of-launch µ-arch state digest
        uint64_t streamHash = 0;  ///< combined Step-stream digest
        KernelStats stats;        ///< full scaled stats of the steady state
        uint64_t replays = 0;     ///< launches served by replay
    };

    /** (Re)build the shared L2 + DRAM if the config changed. */
    void ensureMemorySystem();

    /**
     * Simulate one launch split across @p plan (>= 2 shards): fork one
     * worker thread per extra shard (shard 0 runs on the caller), each
     * with a private L2 clone / DRAM / SmCore / front end / trace ring,
     * then reduce
     * stats, profiles, stream digests and trace events in fixed shard
     * order (sim/shard.hh).  Returns raw (unscaled) statistics exactly
     * like SmCore::run; launch() applies the common scaling after.
     * @param hashed whether stream digests + fingerprints are wanted
     *        (memo arming); when set, @p stream_hash and @p fingerprint
     *        receive the shard-order folds.
     */
    KernelStats launchSharded(const KernelLaunch &launch,
                              const SimPolicy &policy,
                              const std::vector<CtaShard> &plan,
                              const std::vector<uint64_t> &ids,
                              const std::vector<uint32_t> &warp_ids,
                              uint32_t resident, bool hashed,
                              trace::TraceSink *parent_sink,
                              uint64_t *stream_hash, uint64_t *fingerprint);

    /** Digest of the end-of-launch µ-arch state (L2 + DRAM + SM caches). */
    uint64_t stateFingerprint(const SmCore &core) const;

    /** The front ends of the first @p n simulated cores, created on
     *  first use and reused by every later launch. */
    void ensureFrontEnds(size_t n);

    GpuConfig cfg_;
    DeviceMemory mem_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Dram> dram_;
    uint32_t l2BytesBuilt_ = 0;
    /** Launch-memoization table, keyed by launch signature.  Cleared on
     *  coldStart()/reconfigure(), so entries never span a config change
     *  (which is why GpuConfig is not part of the signature). */
    std::unordered_map<uint64_t, MemoEntry> memo_;
    /** Scratch snapshot of device memory for replay fallback (never
     *  taken for valuesUnobserved launches). */
    std::vector<uint8_t> memoSnapshot_;
    /** One front end (helper thread) per core a launch simulates at
     *  once: one unsharded, one per shard when sharded. */
    std::vector<std::unique_ptr<FrontEnd>> frontEnds_;
};

} // namespace tango::sim

#endif // TANGO_SIM_GPU_HH
