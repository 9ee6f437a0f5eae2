#include "cli_common.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/logging.hh"
#include "nn/models/models.hh"
#include "runtime/runtime.hh"

namespace tango::tools {

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

uint64_t
parseUint(const char *flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (!end || *end != '\0' || v.empty())
        fatal("%s expects a non-negative integer, got '%s'", flag,
              v.c_str());
    return n;
}

bool
isPolicyName(const std::string &name)
{
    if (name == "fig")
        return true;
    const auto known = rt::RunPolicy::names();
    return std::find(known.begin(), known.end(), name) != known.end();
}

std::string
canonicalPolicy(const std::string &name)
{
    return name == "fig" ? "bench" : name;
}

void
validatePlatform(const std::string &platform)
{
    if (platform != "GP102" && platform != "GK210" && platform != "TX1")
        fatal("unknown --platform '%s' (known: GP102, GK210, TX1)",
              platform.c_str());
}

NetSelection
parseNetArgs(const std::vector<std::string> &positional,
             const std::string &default_policy)
{
    NetSelection sel;
    sel.policy = default_policy;

    size_t first = 0;
    if (!positional.empty() && isPolicyName(lower(positional[0]))) {
        sel.policy = canonicalPolicy(lower(positional[0]));
        first = 1;
    }

    const auto known = nn::models::runnableNames();
    for (size_t i = first; i < positional.size(); i++) {
        const std::string net = lower(positional[i]);
        if (std::find(known.begin(), known.end(), net) == known.end()) {
            fatal("unknown network '%s' (known: %s)", positional[i].c_str(),
                  knownNetworksLine().c_str());
        }
        sel.nets.push_back(net);
    }
    if (sel.nets.empty())
        fatal("no network given");
    return sel;
}

std::string
knownNetworksLine()
{
    std::string out;
    for (const auto &n : nn::models::runnableNames())
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

rt::JobSpec
makeJobSpec(const std::string &net, const JobSpecArgs &args)
{
    rt::JobSpec spec;
    spec.net = net;
    spec.policy = args.policy;
    spec.platform = args.platform;
    spec.seqLen = args.seqLen;
    std::string tier = args.tier;
    if (tier.empty()) {
        const char *env = std::getenv("TANGO_TIER");
        tier = env && *env ? lower(env) : "sim";
    }
    if (!rt::tierFromName(tier, spec.tier))
        fatal("unknown tier '%s' (known: sim, estimate)",
              tier.c_str());
    spec.functional = args.functional;
    spec.profile = args.profile;
    spec.trace = args.trace;
    const std::string why = spec.validate();
    if (!why.empty())
        fatal("%s", why.c_str());
    return spec;
}

rt::NetRun
runJobOrDie(sim::Gpu &gpu, const rt::JobSpec &spec)
{
    try {
        return rt::runJob(gpu, spec);
    } catch (const sim::DeviceOutOfMemory &e) {
        fatal("%s", e.what());
    }
}

} // namespace tango::tools
