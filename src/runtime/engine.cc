#include "runtime/engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "metrics/metrics.hh"
#include "runtime/run_cache.hh"
#include "sim/gpu.hh"
#include "sim/shard.hh"

namespace tango::rt {

namespace {

/** The process-wide engine series (see metrics.hh), interned once so
 *  that building an Engine stays cheap: cold benchmark rounds and tests
 *  build one per run.  Each Engine's Counters feed the six counters;
 *  the in-flight gauge and the wall-time histogram have no per-engine
 *  view (the gauge moves by deltas, so its sum over engines stays
 *  coherent). */
struct EngineMetrics
{
    metrics::Counter &memHits, &diskHits, &misses, &failures;
    metrics::Counter &tierSim, &tierEstimate;
    metrics::Gauge &inflight;
    metrics::Histogram &simWallUs;

    static EngineMetrics &get()
    {
        static constexpr const char *kCache = "tango_engine_cache_total";
        static constexpr const char *kCacheHelp =
            "Engine cache lookups by result";
        static constexpr const char *kJobs = "tango_engine_jobs_total";
        static constexpr const char *kJobsHelp =
            "Engine JobSpec jobs by requested accuracy tier";
        static EngineMetrics m{
            metrics::counter(kCache, kCacheHelp, {{"result", "mem_hit"}}),
            metrics::counter(kCache, kCacheHelp, {{"result", "disk_hit"}}),
            metrics::counter(kCache, kCacheHelp, {{"result", "miss"}}),
            metrics::counter("tango_engine_failures_total",
                             "Simulations that threw (evicted so a "
                             "retry re-simulates)"),
            metrics::counter(kJobs, kJobsHelp, {{"tier", "sim"}}),
            metrics::counter(kJobs, kJobsHelp, {{"tier", "estimate"}}),
            metrics::gauge("tango_engine_inflight_sims",
                           "Simulations submitted and not yet finished "
                           "(the admission queue depth)"),
            metrics::histogram("tango_engine_sim_wall_us",
                               "Per-job simulation wall time in "
                               "microseconds (cache hits excluded)"),
        };
        return m;
    }
};

} // namespace

// ----------------------------------------------------------- EngineOptions

EngineOptions
EngineOptions::fromEnv()
{
    EngineOptions opt;
    opt.threads = static_cast<unsigned>(envUint("TANGO_ENGINE_THREADS", 0));
    if (opt.threads == 0) {
        // Share the machine between run-level workers and shard-level
        // workers: with TANGO_SIM_SHARDS=K every launch forks up to K
        // simulation threads, so the default worker count drops by K to
        // keep the total thread budget at hardware concurrency.  The
        // division is static (env only, never load-dependent), so it can
        // never make results differ between machines.  An explicit
        // TANGO_ENGINE_THREADS always wins.
        const uint32_t k = sim::envSimShards();
        if (k > 1) {
            const unsigned hw =
                std::max(1u, std::thread::hardware_concurrency());
            opt.threads = std::max(1u, hw / k);
        }
    }
    if (const char *c = std::getenv("TANGO_ENGINE_CACHE"))
        opt.cachePath = c;
    opt.maxCacheBytes =
        envUint("TANGO_ENGINE_CACHE_MAX_MB", 0) * 1024 * 1024;
    return opt;
}

// ------------------------------------------------------------------ Engine

/** One cache entry: the job closure until it runs, the result after. */
struct Engine::Slot
{
    std::string key;
    sim::GpuConfig cfg;
    JobFn fn;   ///< cleared once the job has run

    std::promise<const NetRun *> promise;
    std::shared_future<const NetRun *> future;
    std::unique_ptr<NetRun> result;   ///< stable address for references
};

Engine::Counters::Counters()
    : memHits(&EngineMetrics::get().memHits),
      diskHits(&EngineMetrics::get().diskHits),
      misses(&EngineMetrics::get().misses),
      failures(&EngineMetrics::get().failures),
      tierSim(&EngineMetrics::get().tierSim),
      tierEstimate(&EngineMetrics::get().tierEstimate)
{
}

Engine::Engine(EngineOptions opt)
    : opt_(std::move(opt)), pool_(opt_.threads)
{
    // loadRunCache() rejects files whose kRunCacheVersion *or*
    // kSimStatsVersion differs, so a cached NetRun served here is always
    // bit-identical to what the current simulator would produce.
    if (!opt_.cachePath.empty())
        disk_ = loadRunCache(opt_.cachePath);
}

Engine::~Engine()
{
    pool_.wait();
    flush();
    logCacheStats();
}

sim::Gpu &
Engine::workerGpu(const sim::GpuConfig &cfg)
{
    // One private Gpu per worker thread.  The sim stack is
    // single-threaded internally; the thread_local keeps it that way
    // while letting consecutive jobs on a worker reuse the device
    // (reconfigure() rebuilds the memory system and cold-starts it, so
    // no state leaks between jobs).
    static thread_local std::unique_ptr<sim::Gpu> gpu;
    if (!gpu)
        gpu = std::make_unique<sim::Gpu>(cfg);
    else
        gpu->reconfigure(cfg);
    return *gpu;
}

void
Engine::execute(const std::shared_ptr<Slot> &slot)
{
    EngineMetrics &em = EngineMetrics::get();
    try {
        const auto t0 = std::chrono::steady_clock::now();
        NetRun run = slot->fn(workerGpu(slot->cfg));
        em.simWallUs.observe(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        em.inflight.sub();
        std::unique_lock<std::mutex> lock(mu_);
        slot->fn = nullptr;
        slot->result = std::make_unique<NetRun>(std::move(run));
        dirty_ = true;
        inflight_--;
        slot->promise.set_value(slot->result.get());
    } catch (...) {
        counters_.failures.inc();
        em.inflight.sub();
        std::unique_lock<std::mutex> lock(mu_);
        slot->fn = nullptr;
        inflight_--;
        // Evict so a retry re-simulates; waiters holding the shared
        // future still see the exception through the shared state.
        slots_.erase(slot->key);
        slot->promise.set_exception(std::current_exception());
    }
}

Engine::Submitted
Engine::admit(const std::string &key, const sim::GpuConfig &cfg, JobFn fn,
              const JobSpec *spec, unsigned maxInFlight)
{
    Submitted out;
    auto it = slots_.find(key);
    if (it != slots_.end()) {
        counters_.memHits.inc();
        out.served = it->second->result ? Submitted::Served::MemHit
                                        : Submitted::Served::Joined;
        out.future = it->second->future;
        return out;
    }

    auto disk = disk_.find(key);
    if (disk == disk_.end() && maxInFlight && inflight_ >= maxInFlight)
        return out;   // Rejected: only new simulations are bounded

    auto slot = std::make_shared<Slot>();
    slot->key = key;
    slot->cfg = cfg;
    slot->future = slot->promise.get_future().share();
    out.future = slot->future;
    if (disk != disk_.end()) {
        // Recalled from the JSON spill: resolve immediately.
        counters_.diskHits.inc();
        out.served = Submitted::Served::DiskHit;
        slot->result = std::make_unique<NetRun>(std::move(disk->second));
        disk_.erase(disk);
        slot->promise.set_value(slot->result.get());
        slots_.emplace(key, std::move(slot));
        return out;
    }

    counters_.misses.inc();
    inflight_++;
    EngineMetrics::get().inflight.add();
    out.served = Submitted::Served::Simulated;
    if (fn)
        slot->fn = std::move(fn);
    else
        slot->fn = [job = *spec](sim::Gpu &gpu) { return runJob(gpu, job); };
    slots_.emplace(key, slot);
    pool_.submit([this, slot] { execute(slot); });
    return out;
}

Engine::Submitted
Engine::submitJob(const JobSpec &spec, unsigned maxInFlight, JobFn fn)
{
    JobSpec job = spec;
    job.trace = false;   // a driver concern; never part of the job body
    const std::string key = job.cacheKey().str;
    const sim::GpuConfig cfg = job.gpuConfig();

    (job.tier == Tier::Estimate ? counters_.tierEstimate : counters_.tierSim)
        .inc();
    std::unique_lock<std::mutex> lock(mu_);
    return admit(key, cfg, std::move(fn), &job, maxInFlight);
}

unsigned
Engine::inFlightSims() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return inflight_;
}

std::shared_future<const NetRun *>
Engine::submit(const std::string &key, const sim::GpuConfig &cfg, JobFn fn)
{
    std::unique_lock<std::mutex> lock(mu_);
    return admit(key, cfg, std::move(fn), nullptr, 0).future;
}

const NetRun &
Engine::run(const JobSpec &spec)
{
    return *submitJob(spec).future.get();
}

const NetRun &
Engine::run(const std::string &key, const sim::GpuConfig &cfg, JobFn fn)
{
    return *submit(key, cfg, std::move(fn)).get();
}

void
Engine::prefetch(const std::vector<JobSpec> &specs)
{
    for (const auto &spec : specs)
        submitJob(spec);
}

std::vector<const NetRun *>
Engine::runAll(const std::vector<JobSpec> &specs)
{
    std::vector<std::shared_future<const NetRun *>> futures;
    futures.reserve(specs.size());
    for (const auto &spec : specs)
        futures.push_back(submitJob(spec).future);
    std::vector<const NetRun *> out;
    out.reserve(specs.size());
    for (auto &f : futures)
        out.push_back(f.get());
    return out;
}

void
Engine::flush()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (opt_.cachePath.empty() || !dirty_)
        return;
    // Everything we computed or loaded goes back out: completed slots
    // plus any spill entries no job has claimed yet.
    std::map<std::string, NetRun> all = disk_;
    for (const auto &[key, slot] : slots_) {
        if (slot->result)
            all.emplace(key, *slot->result);
    }
    if (!saveRunCache(opt_.cachePath, all, opt_.maxCacheBytes)) {
        warn("engine: failed to write result cache '%s'",
             opt_.cachePath.c_str());
    }
    dirty_ = false;
}

void
Engine::logCacheStats()
{
    if (statsLogged_.exchange(true))
        return;
    using ull = unsigned long long;
    const Counters &c = counters_;
    const ull mem = c.memHits.value(), disk = c.diskHits.value();
    const ull miss = c.misses.value(), fail = c.failures.value();
    if (mem + disk + miss + fail == 0)
        return;   // nothing ran: nothing worth logging
    inform("engine: cache %llu mem hit%s, %llu disk hit%s, "
           "%llu miss%s (simulated), %llu failure%s",
           mem, mem == 1 ? "" : "s", disk, disk == 1 ? "" : "s", miss,
           miss == 1 ? "" : "es", fail, fail == 1 ? "" : "s");
    const ull sim = c.tierSim.value(), est = c.tierEstimate.value();
    if (sim + est > 0)
        inform("engine: tiers %llu sim, %llu estimate", sim, est);
}

Engine &
Engine::global()
{
    // Leaked on purpose.  A job that fatal()s calls exit() from a worker
    // thread; exit() runs static destructors on that same thread, so a
    // static Engine here would have its ThreadPool join the very worker
    // that is exiting — a self-join deadlock.  The atexit hook still
    // flushes the disk spill (it only takes the engine mutex, which the
    // exiting worker never holds across exit()).
    static Engine *engine = [] {
        Engine *e = new Engine(EngineOptions::fromEnv());
        std::atexit([] {
            global().flush();
            global().logCacheStats();
        });
        return e;
    }();
    return *engine;
}

} // namespace tango::rt
