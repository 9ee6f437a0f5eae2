#include "runtime/job.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "common/json.hh"
#include "common/logging.hh"
#include "estimate/estimator.hh"
#include "nn/models/models.hh"
#include "nn/weights.hh"
#include "runtime/run_cache.hh"
#include "sim/digest.hh"
#include "sim/gpu.hh"
#include "sim/shard.hh"

namespace tango::rt {

namespace {

using json::ObjWriter;
using json::Reader;

bool
isRnnNet(const std::string &net)
{
    return net == "gru" || net == "lstm";
}

// ----------------------------------------------------- RunPolicy <-> JSON
//
// Inline policies travel in full: every SimPolicy field plus the
// RunPolicy wrapper.  The field order is fixed so the serialized form is
// canonical (the content digest below keys the run cache).

void
appendRunPolicy(std::string &out, const RunPolicy &p)
{
    ObjWriter o(out);
    o.key("sim");
    {
        ObjWriter s(out);
        s.u64("maxResidentCtas", p.sim.maxResidentCtas);
        s.u64("maxResidentWarps", p.sim.maxResidentWarps);
        s.u64("maxSampledCtas", p.sim.maxSampledCtas);
        s.boolean("fullSim", p.sim.fullSim);
        s.u64("maxWarpsPerCta", p.sim.maxWarpsPerCta);
        s.u64("maxCycles", p.sim.maxCycles);
        s.boolean("memoize", p.sim.memoize);
        s.boolean("profile", p.sim.profile);
        s.u64("shards", p.sim.shards);
        s.close();
    }
    o.boolean("functional", p.functional);
    o.boolean("check", p.check);
    o.num("tolerance", p.tolerance);
    o.u64("maxLoopChannels", p.maxLoopChannels);
    o.close();
}

/**
 * Read the member @p key of object @p obj into @p out, if present.  The
 * member must have @p out's JSON type, and an integer must be a whole
 * number @p out holds exactly: a wrong type, a negative or fractional
 * value or an overflow throws, naming the field, instead of silently
 * falling back to the default or truncating.
 */
template <class T>
void
readField(const Reader::Value &obj, const char *key, T &out)
{
    const Reader::Value *v = obj.find(key);
    if (!v)
        return;
    if constexpr (std::is_same_v<T, bool>) {
        if (v->kind != Reader::Value::Kind::Bool)
            throw std::runtime_error(std::string("'") + key +
                                     "' must be true or false");
        out = v->b;
    } else if constexpr (std::is_integral_v<T>) {
        // max() + 1.0 is exact (a power of two) for every unsigned T.
        const double limit = double(std::numeric_limits<T>::max()) + 1.0;
        if (v->kind != Reader::Value::Kind::Num || v->num < 0.0 ||
            v->num >= limit || v->num != std::floor(v->num))
            throw std::runtime_error(
                std::string("'") + key + "' must be an integer in [0, " +
                std::to_string(std::numeric_limits<T>::max()) + "]");
        out = static_cast<T>(v->num);
    } else {
        if (v->kind != Reader::Value::Kind::Num)
            throw std::runtime_error(std::string("'") + key +
                                     "' must be a number");
        out = static_cast<T>(v->num);
    }
}

RunPolicy
parseRunPolicy(const Reader::Value &v)
{
    RunPolicy p;
    if (const Reader::Value *s = v.find("sim")) {
        if (s->kind != Reader::Value::Kind::Obj)
            throw std::runtime_error("'runPolicy.sim' must be an object");
        readField(*s, "maxResidentCtas", p.sim.maxResidentCtas);
        readField(*s, "maxResidentWarps", p.sim.maxResidentWarps);
        readField(*s, "maxSampledCtas", p.sim.maxSampledCtas);
        readField(*s, "fullSim", p.sim.fullSim);
        readField(*s, "maxWarpsPerCta", p.sim.maxWarpsPerCta);
        readField(*s, "maxCycles", p.sim.maxCycles);
        readField(*s, "memoize", p.sim.memoize);
        readField(*s, "profile", p.sim.profile);
        readField(*s, "shards", p.sim.shards);
    }
    readField(v, "functional", p.functional);
    readField(v, "check", p.check);
    readField(v, "tolerance", p.tolerance);
    readField(v, "maxLoopChannels", p.maxLoopChannels);
    return p;
}

/** JobSpec::fromValue()'s body: throws std::runtime_error with the
 *  reason on any malformed field. */
JobSpec
parseJobSpec(const Reader::Value &v)
{
    using Kind = Reader::Value::Kind;
    if (v.kind != Kind::Obj)
        throw std::runtime_error("job spec must be a JSON object");

    JobSpec spec;
    spec.net = v.strOr("net");
    if (spec.net.empty())
        throw std::runtime_error("missing required field 'net'");

    const Reader::Value *inlinePol = v.find("runPolicy");
    const Reader::Value *named = v.find("policy");
    if (inlinePol && named)
        throw std::runtime_error(
            "'policy' and 'runPolicy' are mutually exclusive");
    if (inlinePol) {
        if (inlinePol->kind != Kind::Obj)
            throw std::runtime_error("'runPolicy' must be an object");
        spec.hasInlinePolicy = true;
        spec.inlinePolicy = parseRunPolicy(*inlinePol);
    } else if (named) {
        if (named->kind != Kind::Str)
            throw std::runtime_error("'policy' must be a string");
        spec.policy = named->str;
    }

    if (const Reader::Value *p = v.find("platform")) {
        if (p->kind != Kind::Str)
            throw std::runtime_error("'platform' must be a string");
        spec.platform = p->str;
    }
    readField(v, "l1dBytes", spec.l1dBytes);
    if (const Reader::Value *s = v.find("sched")) {
        if (s->kind != Kind::Str || !sim::schedFromName(s->str, spec.sched))
            throw std::runtime_error("unknown scheduler '" +
                                     v.strOr("sched") +
                                     "' (known: gto, lrr, tlv)");
    }
    readField(v, "seqLen", spec.seqLen);
    if (const Reader::Value *t = v.find("tier")) {
        if (t->kind != Kind::Str || !tierFromName(t->str, spec.tier))
            throw std::runtime_error("unknown tier '" + t->str +
                                     "' (known: sim, estimate)");
    }
    readField(v, "maxRelErr", spec.maxRelErr);
    readField(v, "functional", spec.functional);
    readField(v, "profile", spec.profile);
    readField(v, "trace", spec.trace);
    return spec;
}

/** Content digest of an inline policy's canonical JSON, as 16 hex
 *  chars: equal policies key equally no matter how they were built. */
std::string
inlinePolicyTag(const RunPolicy &p)
{
    std::string body;
    appendRunPolicy(body, p);
    uint64_t h = sim::digest::kInit;
    sim::digest::mixBytes(h, body.data(), body.size());
    char buf[32];
    std::snprintf(buf, sizeof buf, "inline-%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

// -------------------------------------------------------------------- Tier

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Sim:      return "sim";
      case Tier::Estimate: return "estimate";
    }
    panic("bad tier %d", static_cast<int>(t));
}

bool
tierFromName(const std::string &name, Tier &out)
{
    if (name == "sim" || name == "replay")
        out = Tier::Sim;
    else if (name == "estimate")
        out = Tier::Estimate;
    else
        return false;
    return true;
}

// ----------------------------------------------------------------- JobSpec

std::string
JobSpec::validate() const
{
    const auto nets = nn::models::runnableNames();
    if (std::find(nets.begin(), nets.end(), net) == nets.end())
        return "unknown network '" + net + "'";
    if (platform != "GP102" && platform != "GK210" && platform != "TX1")
        return "unknown platform '" + platform +
               "' (known: GP102, GK210, TX1)";
    if (!hasInlinePolicy) {
        const auto known = RunPolicy::names();
        if (std::find(known.begin(), known.end(), policy) == known.end())
            return "unknown policy '" + policy + "'";
    }
    if (const std::string why = sim::configError(gpuConfig());
        !why.empty())
        return "invalid GPU config: " + why;
    if (hasInlinePolicy && inlinePolicy.sim.shards > sim::kMaxShards)
        return "runPolicy.sim.shards " +
               std::to_string(inlinePolicy.sim.shards) +
               " out of range [0, " + std::to_string(sim::kMaxShards) + "]";
    if (seqLen > (1u << 20))
        return "seqLen " + std::to_string(seqLen) + " out of range [0, " +
               std::to_string(1u << 20) + "]";
    if (tier == Tier::Estimate && (functional || profile))
        return "estimate-tier jobs cannot be functional or profiled "
               "(the models predict statistics, not outputs)";
    if (maxRelErr < 0.0 || maxRelErr > 1.0)
        return "maxRelErr " + std::to_string(maxRelErr) +
               " out of range [0, 1]";
    if (maxRelErr > 0.0 && tier != Tier::Estimate)
        return "maxRelErr only applies to estimate-tier jobs";
    return "";
}

RunPolicy
JobSpec::resolvedPolicy() const
{
    RunPolicy p =
        hasInlinePolicy ? inlinePolicy : RunPolicy::named(policy);
    p.functional |= functional;
    p.sim.profile |= profile;
    return p;
}

sim::GpuConfig
JobSpec::gpuConfig() const
{
    sim::GpuConfig cfg = platform == "GK210" ? sim::keplerGK210()
                         : platform == "TX1" ? sim::maxwellTX1()
                                             : sim::pascalGP102();
    cfg.l1dBytes = l1dBytes;
    cfg.scheduler = sched;
    return cfg;
}

CacheKey
JobSpec::cacheKey() const
{
    const std::string l1 =
        l1dBytes ? std::to_string(l1dBytes / 1024) + "K" : "off";
    std::string key = net + "/" + platform + "/l1=" + l1 + "/" +
                      sim::schedName(sched) + "/" +
                      (hasInlinePolicy ? inlinePolicyTag(inlinePolicy)
                                       : policy);
    // Normalize the extras away when they are defaults, so a JobSpec
    // that says nothing beyond net x policy x platform keys as
    // "alexnet/GP102/l1=64K/gto/bench" and the serve daemon, the bench
    // binaries and the CLI tools all share one cache entry.  These
    // strings also key the disk spill: never change their format.  The
    // trace flag never participates: tracing observes a run, it does
    // not change what is simulated.
    const uint32_t seq =
        isRnnNet(net) && seqLen != nn::models::kDefaultRnnSeqLen ? seqLen
                                                                 : 0;
    if (seq)
        key += "/seq=" + std::to_string(seq);
    if (functional)
        key += "/fn";
    if (profile)
        key += "/prof";
    // Intra-run sharding changes the simulated statistics (see
    // SimPolicy::shards), so shard counts > 1 must not collide with the
    // K=1 entries — in memory or in a disk spill shared across processes
    // with different TANGO_SIM_SHARDS.  K=1 stays suffix-free.
    const uint32_t k = sim::effectiveShards(resolvedPolicy().sim);
    if (k > 1)
        key += "/k=" + std::to_string(k);
    // Tiers answer with different fidelity, so they must never share a
    // cache entry: an estimated NetRun recalled for a sim-tier job would
    // silently hand model output to a caller who paid for cycle-level
    // truth.  The default tier stays suffix-free (legacy keys unchanged).
    if (tier != Tier::Sim)
        key += std::string("/tier=") + tierName(tier);
    if (maxRelErr > 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "/err=%g", maxRelErr);
        key += buf;
    }
    return CacheKey{key};
}

std::string
JobSpec::toJson() const
{
    std::string out;
    ObjWriter o(out);
    o.str("net", net);
    if (hasInlinePolicy) {
        o.key("runPolicy");
        appendRunPolicy(out, inlinePolicy);
    } else {
        o.str("policy", policy);
    }
    o.str("platform", platform);
    o.u64("l1dBytes", l1dBytes);
    o.str("sched", sim::schedName(sched));
    o.u64("seqLen", seqLen);
    if (tier != Tier::Sim)
        o.str("tier", tierName(tier));
    if (maxRelErr > 0.0)
        o.num("maxRelErr", maxRelErr);
    o.boolean("functional", functional);
    o.boolean("profile", profile);
    o.boolean("trace", trace);
    o.close();
    return out;
}

bool
JobSpec::fromJson(const std::string &text, JobSpec &out, std::string *err)
{
    try {
        out = parseJobSpec(Reader(text).parse());
        return true;
    } catch (const std::exception &e) {
        if (err)
            *err = e.what();
        return false;
    }
}

bool
JobSpec::fromValue(const Reader::Value &v, JobSpec &out, std::string *err)
{
    try {
        out = parseJobSpec(v);
        return true;
    } catch (const std::exception &e) {
        if (err)
            *err = e.what();
        return false;
    }
}

// ---------------------------------------------------------------- JobResult

std::string
JobResult::toJson() const
{
    std::string out;
    ObjWriter o(out);
    writeFields(o);
    o.close();
    return out;
}

void
JobResult::writeFields(ObjWriter &o, const std::string *runJson) const
{
    o.boolean("ok", ok);
    if (!ok)
        o.str("error", error);
    if (!served.empty())
        o.str("served", served);
    o.num("latencyMs", latencyMs);
    if (ok) {
        if (runJson)
            o.raw("run", *runJson);
        else
            o.raw("run", serializeNetRun(run));
    }
}

bool
JobResult::fromJson(const std::string &text, JobResult &out,
                    std::string *err)
{
    try {
        Reader p(text);
        Reader::Value fields;
        JobResult res = read(p, fields);
        p.end();
        out = std::move(res);
        return true;
    } catch (const std::exception &e) {
        if (err)
            *err = e.what();
        return false;
    }
}

JobResult
JobResult::read(Reader &p, Reader::Value &fields)
{
    if (p.peek() != '{')
        throw std::runtime_error("job result must be a JSON object");
    JobResult res;
    bool hasRun = false;
    fields = Reader::Value();
    fields.kind = Reader::Value::Kind::Obj;
    p.members([&](std::string_view key) {
        if (key != "run") {
            fields.obj.emplace_back(std::string(key), p.value());
            return;
        }
        hasRun = p.peek() == '{';
        if (hasRun)
            res.run = readNetRun(p);
        else
            p.value();
    });
    res.ok = fields.boolOr("ok", false);
    res.error = fields.strOr("error");
    res.served = fields.strOr("served");
    res.latencyMs = fields.numOr("latencyMs");
    if (res.ok && !hasRun)
        throw std::runtime_error("ok result is missing its 'run' object");
    if (!res.ok)
        res.run = NetRun();   // "run" is only valid when ok
    return res;
}

// ------------------------------------------------------------------ running

NetRun
runJob(sim::Gpu &gpu, const JobSpec &spec)
{
    Runtime rt(gpu);
    return rt.run(spec);
}

NetRun
Runtime::run(const JobSpec &spec)
{
    const std::string why = spec.validate();
    if (!why.empty())
        throw std::invalid_argument("invalid job " + spec.toJson() + ": " +
                                    why);

    if (spec.tier == Tier::Estimate) {
        NetRun est;
        std::string reason;
        if (estimate::Estimator::global().estimate(spec, est, &reason))
            return est;
        inform("estimate tier: %s falling back to simulation (%s)",
               spec.cacheKey().str.c_str(), reason.c_str());
    }

    const RunPolicy policy = spec.resolvedPolicy();
    nn::AnyModel model = [&] {
        if (spec.net == "gru")
            return nn::AnyModel(
                spec.seqLen ? nn::models::buildGru(spec.seqLen)
                            : nn::models::buildGru());
        if (spec.net == "lstm")
            return nn::AnyModel(
                spec.seqLen ? nn::models::buildLstm(spec.seqLen)
                            : nn::models::buildLstm());
        return nn::models::buildAny(spec.net);
    }();
    if (policy.functional || policy.check)
        nn::initWeights(model);
    return run(model, policy);
}

} // namespace tango::rt
