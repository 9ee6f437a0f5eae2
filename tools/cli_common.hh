/**
 * @file
 * Argument-parsing helpers shared by the tango-* command line tools
 * (tango-run, tango-trace, tango-prof): lowercase normalization, integer
 * flag parsing, platform validation, and the common
 * `[<policy>] <network>...` positional convention validated against the
 * single network registry (nn::models::runnableNames()).
 */

#ifndef TANGO_TOOLS_CLI_COMMON_HH
#define TANGO_TOOLS_CLI_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/job.hh"

namespace tango::tools {

/** @return @p s lowercased (ASCII). */
std::string lower(std::string s);

/** Parse a non-negative integer flag value; fatal()s on garbage. */
uint64_t parseUint(const char *flag, const std::string &v);

/** @return whether @p name (already lowercased) names a RunPolicy,
 *  including the "fig" alias for the figure benches' policy. */
bool isPolicyName(const std::string &name);

/** Resolve policy aliases: "fig" -> "bench", anything else unchanged. */
std::string canonicalPolicy(const std::string &name);

/** fatal()s unless @p platform is one of GP102 | GK210 | TX1. */
void validatePlatform(const std::string &platform);

/** Networks + policy picked from the positional arguments. */
struct NetSelection
{
    std::string policy;
    std::vector<std::string> nets;
};

/**
 * Interpret positional arguments as `[<policy>] <network>...`: a leading
 * positional naming a policy (or the "fig" alias) selects it, every
 * remaining one must be in nn::models::runnableNames().  fatal()s on an
 * unknown network or an empty network list.
 */
NetSelection parseNetArgs(const std::vector<std::string> &positional,
                          const std::string &default_policy = "bench");

/** Comma-separated runnableNames() — for usage/error text. */
std::string knownNetworksLine();

/**
 * The flag-derived parts of a job, shared by every tango-* tool; one
 * per invocation, combined with each positional network.
 */
struct JobSpecArgs
{
    std::string policy = "bench";
    std::string platform = "GP102";
    uint32_t seqLen = 0;       ///< 0 = model default (RNNs only)
    /** Accuracy tier name ("sim" | "estimate"); "" resolves
     *  the TANGO_TIER environment knob, itself defaulting to "sim". */
    std::string tier;
    bool functional = false;
    bool profile = false;
    bool trace = false;
};

/** @return the rt::JobSpec for running @p net under @p args; fatal()s
 *  with the validation reason if the combination is not runnable. */
rt::JobSpec makeJobSpec(const std::string &net, const JobSpecArgs &args);

/** rt::runJob for the in-process tools: a job the device memory cannot
 *  hold ends the tool with fatal()'s one-line diagnostic (exit 1). */
rt::NetRun runJobOrDie(sim::Gpu &gpu, const rt::JobSpec &spec);

} // namespace tango::tools

#endif // TANGO_TOOLS_CLI_COMMON_HH
