/**
 * @file
 * tango::rt::Engine — the parallel simulation engine.
 *
 * The paper's evaluation is ~40 independent (network x platform x L1D x
 * scheduler) simulation points; each one is a pure function of its
 * configuration.  The Engine turns those points into jobs, shards them
 * across a worker thread pool — one private sim::Gpu per worker, so the
 * single-threaded Gpu/Core/Cache/Power stack needs no locking — and
 * memoizes the resulting NetRun in a process-wide keyed cache with an
 * optional on-disk JSON spill (run_cache.hh).
 *
 * Determinism: a job derives every random bit from fixed seeds (weights
 * and inputs are seeded per tensor; the simulator itself is
 * deterministic), so results are bit-identical regardless of worker
 * count or completion order.  test_engine.cc asserts this.
 */

#ifndef TANGO_RUNTIME_ENGINE_HH
#define TANGO_RUNTIME_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "metrics/metrics.hh"
#include "runtime/job.hh"
#include "runtime/runtime.hh"
#include "sim/config.hh"

namespace tango::sim {
class Gpu;
}

namespace tango::rt {

/** Engine construction knobs. */
struct EngineOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** On-disk JSON spill path; empty = in-memory cache only. */
    std::string cachePath;
    /** Spill size cap in bytes; 0 = unlimited.  Entries past the cap are
     *  not written (they are re-simulated next run). */
    uint64_t maxCacheBytes = 0;

    /** Read TANGO_ENGINE_THREADS / TANGO_ENGINE_CACHE /
     *  TANGO_ENGINE_CACHE_MAX_MB from the environment (unset variables
     *  keep the defaults above).  Malformed numeric values — anything
     *  but a plain non-negative integer — are a fatal() error, never
     *  silently treated as 0.  With TANGO_SIM_SHARDS=K (> 1) and no
     *  explicit thread count, the default worker count becomes
     *  hardware concurrency / K, so run-level and shard-level workers
     *  share one static thread budget. */
    static EngineOptions fromEnv();
};

/**
 * A job-based parallel simulation engine with a keyed result cache.
 *
 * Standard jobs are JobSpecs, keyed by JobSpec::cacheKey(); arbitrary
 * sweeps (quantized weights, custom models) submit a JobFn under an
 * explicit cache key.  Both are admitted by one path, so they share the
 * cache, the in-flight dedup and the counters.  submitJob()/submit()
 * return a shared future immediately; run() blocks.  Results live for
 * the Engine's lifetime and are returned by reference — repeated run()
 * calls with the same key return the same object.
 *
 * A job that throws fails only its own future: the exception is
 * rethrown from run()/future.get(), the key is evicted (a retry
 * re-simulates), and the worker moves on to the next job.
 */
class Engine
{
  public:
    /** A custom job: simulate something on the worker's Gpu (already
     *  reconfigured to the job's GpuConfig) and return the statistics. */
    using JobFn = std::function<NetRun(sim::Gpu &)>;

    explicit Engine(EngineOptions opt = {});

    /** Waits for outstanding jobs, then flushes the disk spill. */
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** How a submitJob() was satisfied.  The slot map doubles as an
     *  in-flight dedup table: a job whose key is already being
     *  simulated joins that simulation instead of starting another —
     *  this is what makes tango-serve safe under request storms. */
    struct Submitted
    {
        enum class Served
        {
            Simulated,   ///< started a fresh simulation
            Joined,      ///< deduplicated onto an identical in-flight job
            MemHit,      ///< result already resident
            DiskHit,     ///< recalled from the JSON spill
            Rejected     ///< admission control refused (maxInFlight)
        };
        Served served = Served::Rejected;
        /** Valid unless served == Rejected. */
        std::shared_future<const NetRun *> future;
    };

    /**
     * Enqueue a JobSpec under its canonical cache key.
     * @param maxInFlight if nonzero, reject (rather than enqueue) a job
     *        that would start a NEW simulation while that many are
     *        already in flight — cache hits and joins are always
     *        admitted; they cost nearly nothing.  The check and the
     *        enqueue are one critical section, so the bound is exact.
     * @param fn if given, runs instead of the standard job body
     *        runJob(gpu, spec) — the tango-serve tests inject blocking
     *        runners through this to pin jobs in flight.
     * An invalid spec fails only its own future (std::invalid_argument;
     * sim::ConfigError for an unbuildable GPU config).
     */
    Submitted submitJob(const JobSpec &spec, unsigned maxInFlight = 0,
                        JobFn fn = nullptr);

    /** @return jobs currently being simulated (submitted, not done). */
    unsigned inFlightSims() const;

    /** Enqueue a custom job under @p key (no-op if cached). */
    std::shared_future<const NetRun *> submit(const std::string &key,
                                              const sim::GpuConfig &cfg,
                                              JobFn fn);

    /** Run (or recall) a standard job; blocks. */
    const NetRun &run(const JobSpec &spec);

    /** Run (or recall) a custom job; blocks. */
    const NetRun &run(const std::string &key, const sim::GpuConfig &cfg,
                      JobFn fn);

    /** Submit every spec so the pool simulates them concurrently.
     *  Subsequent run() calls then only wait, never simulate. */
    void prefetch(const std::vector<JobSpec> &specs);

    /** prefetch() + collect, in input order; blocks for all. */
    std::vector<const NetRun *> runAll(const std::vector<JobSpec> &specs);

    /** Write the disk spill now (also done by the destructor). */
    void flush();

    /** @return the worker count. */
    unsigned threads() const { return pool_.threadCount(); }

    /** This engine's cache and job counters (for logs, the serve stats
     *  reply and tests).  Each is bound to its process-wide
     *  tango_engine_* registry series, so one update feeds both. */
    struct Counters
    {
        Counters();

        metrics::Counter memHits;    ///< key already resident
        metrics::Counter diskHits;   ///< recalled from the JSON spill
        metrics::Counter misses;     ///< actually simulated
        metrics::Counter failures;   ///< jobs that threw
        // Per-tier JobSpec counts (custom-key jobs have no tier).
        metrics::Counter tierSim, tierEstimate;
    };
    const Counters &counters() const { return counters_; }

    /** Log the cache counters once at info level (repeat calls are
     *  no-ops).  Run by the destructor and, for global(), at exit — so
     *  warm-vs-cold behaviour is visible without a debugger. */
    void logCacheStats();

    /** The process-wide engine (configured from the environment).
     *  This is what tango-fig and the examples share. */
    static Engine &global();

  private:
    struct Slot;

    /** The one admission path (caller holds mu_): join a resident or
     *  in-flight slot, recall from the spill, or start @p fn — or, when
     *  @p fn is empty, runJob() on @p spec — unless @p maxInFlight
     *  simulations are already running. */
    Submitted admit(const std::string &key, const sim::GpuConfig &cfg,
                    JobFn fn, const JobSpec *spec, unsigned maxInFlight);
    void execute(const std::shared_ptr<Slot> &slot);
    sim::Gpu &workerGpu(const sim::GpuConfig &cfg);

    EngineOptions opt_;
    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<Slot>> slots_;
    std::map<std::string, NetRun> disk_;   ///< loaded, not-yet-claimed spill
    Counters counters_;
    unsigned inflight_ = 0;   ///< simulations submitted but not finished
    bool dirty_ = false;   ///< new results since the last flush
    std::atomic<bool> statsLogged_{false};   ///< logCacheStats() once-guard

    ThreadPool pool_;   ///< declared last: joins before members die
};

} // namespace tango::rt

#endif // TANGO_RUNTIME_ENGINE_HH
