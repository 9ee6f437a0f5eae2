/**
 * @file
 * tango-perfbench: the benchmark program.
 *
 *   tango-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                   --reference <reference.json> [--spans-out <file>]
 *   tango-perfbench --record <reference.json>
 *
 * Prints a header line, the traced run's report, and as its last line
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.  Run
 * it through perfbench/run.py, which builds it and pins the environment.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog.hh"
#include "check.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
refuse(const std::string &why)
{
    std::fprintf(stderr, "tango-perfbench: %s\n", why.c_str());
    std::exit(2);
}

/** Refuse builds whose timings would mislead. */
void
checkBuild()
{
#ifndef NDEBUG
    refuse("refusing to measure a build without NDEBUG (Debug build)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    refuse("refusing to measure a sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    refuse("refusing to measure a sanitizer build");
#endif
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0)
        refuse("refusing to measure a Debug build");
}

/** Only the pinned estimate-weights directory may reach the program;
 *  every other TANGO_* knob changes what or how it runs. */
void
checkEnvironment()
{
    for (char **e = environ; *e; e++) {
        if (std::strncmp(*e, "TANGO_", 6) == 0 &&
            std::strncmp(*e, "TANGO_ESTIMATE_WEIGHTS=", 23) != 0)
            refuse(std::string("ambient knob ") + *e +
                   " is set; run through perfbench/run.py");
    }
    if (!std::getenv("TANGO_ESTIMATE_WEIGHTS"))
        refuse("TANGO_ESTIMATE_WEIGHTS must name the repository's "
               "weights/estimate directory");
}

bool
knownWorkload(const std::string &w)
{
    for (const char *k : kWorkloads) {
        if (w == k)
            return true;
    }
    return false;
}

/** The result line; @p correct turns false if a metric is not finite. */
std::string
resultJson(const RunArgs &args, const Outcome &out, bool &correct)
{
    const auto &defs = args.trace ? perLayerMetrics() : endToEndMetrics();
    std::vector<double> values;
    for (const MetricDef &d : defs) {
        const auto it = out.metrics.find(d.name);
        values.push_back(it == out.metrics.end() ? NAN : it->second);
        if (!std::isfinite(values.back())) {
            std::fprintf(stderr, "metric %s has no finite value\n",
                         d.name.c_str());
            correct = false;
            values.back() = 0.0;
        }
    }
    std::string s;
    tango::json::ObjWriter o(s);
    o.boolean("correct", correct);
    o.u64("attempted", out.attempted);
    o.u64("failed", out.failed);
    o.key("metrics");
    tango::json::ObjWriter m(s);
    for (size_t i = 0; i < defs.size(); i++) {
        m.key(defs[i].name.c_str());
        tango::json::ObjWriter e(s);
        e.num("value", values[i]);
        e.str("unit", defs[i].unit);
        e.close();
    }
    m.close();
    o.close();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    std::string reference, spansOut, record;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            refuse("missing value for " + a);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                refuse("--trace takes 0 or 1");
            args.trace = v == "1";
        } else if (a == "--reference") {
            reference = v;
        } else if (a == "--spans-out") {
            spansOut = v;
        } else if (a == "--record") {
            record = v;
        } else {
            refuse("unknown argument " + a);
        }
        if (end && *end)
            refuse("malformed number for " + a + ": " + v);
    }
    checkBuild();
    checkEnvironment();
    tango::setVerbose(false);   // info logs would land on stdout

    if (!record.empty()) {
        std::ofstream(record) << referencesToJson(recordReferences());
        std::printf("wrote %s\n", record.c_str());
        return 0;
    }
    if (!knownWorkload(args.workload))
        refuse("unknown workload '" + args.workload + "'");
    if (!(args.seconds > 0 && args.seconds <= 600))
        refuse("--seconds must be in (0, 600]");
    References refs;
    std::string err;
    if (reference.empty() || !loadReferences(reference, refs, err))
        refuse(reference.empty() ? "--reference is required" : err);

    std::printf("# tango-perfbench workload=%s seed=%llu seconds=%g "
                "trace=%d nproc=%u build=%s compiler=%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
    const Outcome out = runWorkload(args, refs);
    std::fputs(out.report.c_str(), stdout);
    for (const std::string &e : out.errors)
        std::fprintf(stderr, "check failed: %s\n", e.c_str());
    if (args.trace && !spansOut.empty()) {
        std::ofstream f(spansOut);
        f << spansToJson(out.spans);
        if (!f)
            refuse("cannot write spans to " + spansOut);
        std::printf("spans: %zu written to %s\n", out.spans.size(),
                    spansOut.c_str());
    }
    bool correct = out.failed == 0 && out.attempted > 0;
    const std::string json = resultJson(args, out, correct);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
