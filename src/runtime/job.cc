#include "runtime/job.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

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

RunPolicy
parseRunPolicy(const Reader::Value &v)
{
    RunPolicy p;
    if (const Reader::Value *s = v.find("sim")) {
        p.sim.maxResidentCtas =
            static_cast<uint32_t>(s->u64Or("maxResidentCtas",
                                           p.sim.maxResidentCtas));
        p.sim.maxResidentWarps =
            static_cast<uint32_t>(s->u64Or("maxResidentWarps",
                                           p.sim.maxResidentWarps));
        p.sim.maxSampledCtas = s->u64Or("maxSampledCtas",
                                        p.sim.maxSampledCtas);
        p.sim.fullSim = s->boolOr("fullSim", p.sim.fullSim);
        p.sim.maxWarpsPerCta =
            static_cast<uint32_t>(s->u64Or("maxWarpsPerCta",
                                           p.sim.maxWarpsPerCta));
        p.sim.maxCycles = s->u64Or("maxCycles", p.sim.maxCycles);
        p.sim.memoize = s->boolOr("memoize", p.sim.memoize);
        p.sim.profile = s->boolOr("profile", p.sim.profile);
        p.sim.shards =
            static_cast<uint32_t>(s->u64Or("shards", p.sim.shards));
    }
    p.functional = v.boolOr("functional", p.functional);
    p.check = v.boolOr("check", p.check);
    p.tolerance = static_cast<float>(v.numOr("tolerance", p.tolerance));
    p.maxLoopChannels =
        static_cast<uint32_t>(v.u64Or("maxLoopChannels",
                                      p.maxLoopChannels));
    return p;
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
      case Tier::Replay:   return "replay";
      case Tier::Estimate: return "estimate";
    }
    panic("bad tier %d", static_cast<int>(t));
}

bool
tierFromName(const std::string &name, Tier &out)
{
    if (name == "sim")
        out = Tier::Sim;
    else if (name == "replay")
        out = Tier::Replay;
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
    // Replay tier IS the policy with launch memoization forced on; an
    // estimate-tier job that falls back to simulation gets the same.
    if (tier != Tier::Sim)
        p.sim.memoize = true;
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
    // that says nothing beyond net x policy x platform keys exactly
    // like the legacy RunKey ("alexnet/GP102/l1=64K/gto/bench") and the
    // serve daemon, the bench binaries and the CLI tools all share one
    // cache entry.  The trace flag never participates: tracing observes
    // a run, it does not change what is simulated.
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
    // with different TANGO_SIM_SHARDS.  K=1 stays suffix-free so the base
    // form remains character-identical to RunKey::str().
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
    Reader::Value v;
    try {
        v = Reader(text).parse();
    } catch (const std::exception &e) {
        if (err)
            *err = e.what();
        return false;
    }
    return fromValue(v, out, err);
}

bool
JobSpec::fromValue(const Reader::Value &v, JobSpec &out, std::string *err)
{
    const auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (v.kind != Reader::Value::Kind::Obj)
        return fail("job spec must be a JSON object");

    JobSpec spec;
    spec.net = v.strOr("net");
    if (spec.net.empty())
        return fail("missing required field 'net'");

    const Reader::Value *inlinePol = v.find("runPolicy");
    const Reader::Value *named = v.find("policy");
    if (inlinePol && named)
        return fail("'policy' and 'runPolicy' are mutually exclusive");
    if (inlinePol) {
        if (inlinePol->kind != Reader::Value::Kind::Obj)
            return fail("'runPolicy' must be an object");
        spec.hasInlinePolicy = true;
        spec.inlinePolicy = parseRunPolicy(*inlinePol);
    } else if (named) {
        if (named->kind != Reader::Value::Kind::Str)
            return fail("'policy' must be a string");
        spec.policy = named->str;
    }

    if (const Reader::Value *p = v.find("platform")) {
        if (p->kind != Reader::Value::Kind::Str)
            return fail("'platform' must be a string");
        spec.platform = p->str;
    }
    spec.l1dBytes = static_cast<uint32_t>(v.u64Or("l1dBytes",
                                                  spec.l1dBytes));
    if (const Reader::Value *s = v.find("sched")) {
        if (s->kind != Reader::Value::Kind::Str ||
            !sim::schedFromName(s->str, spec.sched))
            return fail("unknown scheduler '" + s->strOr("sched") +
                        "' (known: gto, lrr, tlv)");
    }
    spec.seqLen = static_cast<uint32_t>(v.u64Or("seqLen", 0));
    if (const Reader::Value *t = v.find("tier")) {
        if (t->kind != Reader::Value::Kind::Str ||
            !tierFromName(t->str, spec.tier))
            return fail("unknown tier '" + t->str +
                        "' (known: sim, replay, estimate)");
    }
    spec.maxRelErr = v.numOr("maxRelErr", 0.0);
    spec.functional = v.boolOr("functional", false);
    spec.profile = v.boolOr("profile", false);
    spec.trace = v.boolOr("trace", false);
    out = std::move(spec);
    return true;
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
        fatal("invalid job %s: %s", spec.toJson().c_str(), why.c_str());

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
