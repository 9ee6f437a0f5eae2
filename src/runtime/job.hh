/**
 * @file
 * rt::JobSpec — THE single description of one simulation job, and
 * rt::JobResult — the answer a job produces.
 *
 * Every entry point used to assemble net x policy x platform arguments
 * its own way (tango-run's Options struct, tango-trace's, the bench
 * binaries' RunKey tuples, ad-hoc gru/lstm special cases).  JobSpec
 * replaces all of that with one value type that is simultaneously:
 *
 *  - the parse target of the CLI tools (tools/cli_common),
 *  - the wire format of the tango-serve daemon (serve/protocol), via
 *    canonical JSON (de)serialization,
 *  - the cache-key source of the rt::Engine run cache (rt::CacheKey):
 *    two JobSpecs that describe the same simulation produce the same
 *    key, no matter how their JSON fields were ordered, and a JobSpec
 *    with all-default extras keys identically to the legacy RunKey so
 *    serve traffic and bench sweeps share one cache.
 *
 * A JobSpec names either a registered RunPolicy ("bench", "mem", ...)
 * or carries a full inline RunPolicy for custom sweeps; inline policies
 * key by content digest.
 */

#ifndef TANGO_RUNTIME_JOB_HH
#define TANGO_RUNTIME_JOB_HH

#include <string>

#include "common/json.hh"
#include "runtime/runtime.hh"
#include "sim/config.hh"

namespace tango::rt {

/**
 * Accuracy tier of one job — how much fidelity the caller is paying for.
 * Higher tiers answer faster by giving up cycle-level guarantees:
 *  - Sim: full cycle-level simulation (the default; the only tier whose
 *    results are bit-exact against the golden fixtures).
 *  - Replay: cycle-level simulation with launch memoization forced on —
 *    repeated identical launches replay their steady-state statistics.
 *  - Estimate: no simulation at all; the fitted per-kernel-family models
 *    (estimate/estimator.hh) answer from layer shapes alone, with the
 *    bundle's validated error bounds attached.  Falls back to Replay
 *    semantics when the models cannot honour the request.
 */
enum class Tier : uint8_t
{
    Sim,
    Replay,
    Estimate
};

/** @return the tier's wire name: "sim" | "replay" | "estimate". */
const char *tierName(Tier t);

/** Parse a wire name; @return false on an unknown name. */
bool tierFromName(const std::string &name, Tier &out);

/**
 * The Engine's cache-key form of a job: a canonical, human-readable
 * string (e.g. "alexnet/GP102/l1=64K/gto/bench" or
 * "gru/TX1/l1=off/lrr/exact/seq=512/fn").  Derived exclusively from
 * JobSpec::cacheKey() so every front end keys the same simulation the
 * same way.
 */
struct CacheKey
{
    std::string str;

    bool operator<(const CacheKey &o) const { return str < o.str; }
    bool operator==(const CacheKey &o) const { return str == o.str; }
};

/** One simulation job: which network, under which policy, on which
 *  platform, with which execution flags. */
struct JobSpec
{
    /** Network name (nn::models::runnableNames()). */
    std::string net;

    /** Named RunPolicy ("bench", "mem", "stall", "exact", or anything
     *  registered); ignored when hasInlinePolicy is set. */
    std::string policy = "bench";

    /** Carry a full RunPolicy instead of a registry name (custom
     *  sweeps).  Serialized as "runPolicy" on the wire. */
    bool hasInlinePolicy = false;
    RunPolicy inlinePolicy;

    /** Platform: GP102 | GK210 | TX1. */
    std::string platform = "GP102";
    /** L1D size in bytes; 0 = bypassed. */
    uint32_t l1dBytes = 64 * 1024;
    /** Warp scheduler. */
    sim::SchedPolicy sched = sim::SchedPolicy::GTO;

    /** RNN sequence length; 0 = the model default
     *  (nn::models::kDefaultRnnSeqLen).  Ignored for CNNs. */
    uint32_t seqLen = 0;

    /** Accuracy tier (see Tier).  The default, Tier::Sim, is elided
     *  from the cache key and the wire format, so sim-tier jobs key and
     *  serialize exactly as they did before tiers existed. */
    Tier tier = Tier::Sim;
    /** Estimate-tier only: the relative cycle error the caller will
     *  accept, in (0, 1]; 0 = take whatever the models validated.  A
     *  bound tighter than the fitted models' holdout p95 makes the job
     *  fall back to simulation. */
    double maxRelErr = 0.0;

    // Execution flags, folded into the resolved policy.
    bool functional = false;   ///< upload weights, compute real outputs
    bool profile = false;      ///< per-PC attribution (SimPolicy::profile)
    /** Record a cycle-level trace.  An instruction to the *driver* (the
     *  tool installs a trace sink around the run); the simulation
     *  itself, its statistics and its cache key are unaffected.
     *  tango-serve rejects traced jobs — event streams are orders of
     *  magnitude larger than stats and belong in tango-trace. */
    bool trace = false;

    /** @return "" if the spec is runnable, else a one-line reason
     *  (unknown net/policy/platform, a sim::configError() platform,
     *  more than sim::kMaxShards shards, out-of-range seqLen).  Check
     *  this before run()/submitJob(): running an invalid spec fatal()s. */
    std::string validate() const;

    /** @return the effective RunPolicy: the named (or inline) policy
     *  with the functional/profile flags folded in. */
    RunPolicy resolvedPolicy() const;

    /** @return the GpuConfig this spec describes. */
    sim::GpuConfig gpuConfig() const;

    /** Canonical cache key.  Defaults are normalized away (a CNN's
     *  seqLen, an RNN's explicit default seqLen) so equivalent specs
     *  collide; the base form matches RunKey::str() exactly. */
    CacheKey cacheKey() const;

    /** Canonical JSON (fixed field order; inline policies serialized in
     *  full).  The wire format of tango-serve. */
    std::string toJson() const;

    /**
     * Parse a JobSpec from JSON in any field order; unknown fields are
     * ignored (forward compatibility).  Parsing does NOT validate() —
     * a syntactically well-formed spec for an unknown net parses fine.
     * @return false (out untouched) on malformed JSON or field types,
     *         with a reason in @p err if given.
     */
    static bool fromJson(const std::string &text, JobSpec &out,
                         std::string *err = nullptr);

    /** fromJson() over an already-parsed document (the "job" field of
     *  a serve run request). */
    static bool fromValue(const json::Reader::Value &v, JobSpec &out,
                          std::string *err = nullptr);
};

/** What one job produced: a NetRun on success, an error otherwise,
 *  plus how the serve layer satisfied the request. */
struct JobResult
{
    bool ok = false;
    std::string error;        ///< set when !ok (validation, queue-full, ...)
    /** How the request was served: "sim" (fresh simulation), "join"
     *  (deduplicated onto an identical in-flight job), "mem"/"disk"
     *  (cache hits), or "" for local runs. */
    std::string served;
    double latencyMs = 0.0;   ///< server-side service time
    NetRun run;               ///< valid when ok

    std::string toJson() const;
    static bool fromJson(const std::string &text, JobResult &out,
                         std::string *err = nullptr);

    /**
     * Decode the result object at @p p's cursor in one pass (the body
     * of fromJson()).  "run" goes straight to readNetRun(); every other
     * member is read with Reader::value() into the object @p fields,
     * where the caller finds any it owns (a serve response's "type"
     * and "id").  A repeated key's last value wins.
     * @throws std::runtime_error on malformed JSON or an ok result
     *         without a "run" object.
     */
    static JobResult read(json::Reader &p, json::Reader::Value &fields);

    /** Write this result's fields (ok, error, served, latencyMs, run)
     *  into an open object.  @p runJson, when given, is spliced in as
     *  "run" in place of serializeNetRun(run): the serve daemon passes
     *  the body it serialized once for a resident result. */
    void writeFields(json::ObjWriter &o,
                     const std::string *runJson = nullptr) const;
};

/**
 * Run one job on @p gpu (which must already be configured to
 * spec.gpuConfig(); rt::Engine workers guarantee this).  Builds the
 * model (honouring seqLen), generates weights only when the resolved
 * policy needs functional outputs, and runs it.  fatal()s on an invalid
 * spec — validate() first.
 */
NetRun runJob(sim::Gpu &gpu, const JobSpec &spec);

} // namespace tango::rt

#endif // TANGO_RUNTIME_JOB_HH
