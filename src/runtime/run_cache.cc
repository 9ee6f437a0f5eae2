#include "runtime/run_cache.hh"

#include "common/json.hh"
#include "common/logging.hh"

#include <fstream>
#include <sstream>
#include <vector>

namespace tango::rt {

namespace {

// ---------------------------------------------------------------- writer

using json::ObjWriter;
using json::appendDouble;
using json::appendEscaped;
using json::appendU64;

void
appendStatSet(std::string &out, const StatSet &st)
{
    out += '{';
    bool first = true;
    for (const auto &[name, v] : st.all()) {
        if (!first)
            out += ',';
        first = false;
        appendEscaped(out, name);
        out += ':';
        appendDouble(out, v);
    }
    out += '}';
}

void
appendU64Vec(std::string &out, const std::vector<uint64_t> &v)
{
    out += '[';
    for (size_t i = 0; i < v.size(); i++) {
        if (i)
            out += ',';
        appendU64(out, v[i]);
    }
    out += ']';
}

void
appendU16Vec(std::string &out, const std::vector<uint16_t> &v)
{
    out += '[';
    for (size_t i = 0; i < v.size(); i++) {
        if (i)
            out += ',';
        appendU64(out, v[i]);
    }
    out += ']';
}

void
appendStrVec(std::string &out, const std::vector<std::string> &v)
{
    out += '[';
    for (size_t i = 0; i < v.size(); i++) {
        if (i)
            out += ',';
        appendEscaped(out, v[i]);
    }
    out += ']';
}

void
appendProfile(std::string &out, const sim::KernelProfile &p)
{
    ObjWriter o(out);
    o.key("labels");
    appendStrVec(out, p.labels);
    o.key("pcLabel");
    appendU16Vec(out, p.pcLabel);
    o.key("disasm");
    appendStrVec(out, p.disasm);
    o.key("issued");
    appendU64Vec(out, p.issued);
    o.key("stalls");
    appendU64Vec(out, p.stalls);
    o.key("l1dMisses");
    appendU64Vec(out, p.l1dMisses);
    o.key("l2Misses");
    appendU64Vec(out, p.l2Misses);
    o.key("dramTxns");
    appendU64Vec(out, p.dramTxns);
    o.u64("lineBytes", p.lineBytes);
    o.num("scale", p.scale);
    o.num("workScale", p.workScale);
    o.close();
}

void
appendDim3(std::string &out, const sim::Dim3 &d)
{
    out += '[';
    appendU64(out, d.x);
    out += ',';
    appendU64(out, d.y);
    out += ',';
    appendU64(out, d.z);
    out += ']';
}

void
appendKernelStats(std::string &out, const sim::KernelStats &k)
{
    ObjWriter o(out);
    o.str("name", k.name);
    o.key("grid");
    appendDim3(out, k.grid);
    o.key("block");
    appendDim3(out, k.block);
    o.u64("totalCtas", k.totalCtas);
    o.u64("sampledCtas", k.sampledCtas);
    o.u64("totalWarpsPerCta", k.totalWarpsPerCta);
    o.u64("sampledWarpsPerCta", k.sampledWarpsPerCta);
    o.num("scale", k.scale);
    o.u64("smCycles", k.smCycles);
    o.num("gpuCycles", k.gpuCycles);
    o.num("timeSec", k.timeSec);
    o.u64("activeSms", k.activeSms);
    o.key("stats");
    appendStatSet(out, k.stats);
    o.u64("regsPerThread", k.regsPerThread);
    o.u64("maxLiveRegs", k.maxLiveRegs);
    o.u64("smemBytes", k.smemBytes);
    o.u64("cmemBytes", k.cmemBytes);
    o.u64("residentCtas", k.residentCtas);
    o.u64("occupancyCtas", k.occupancyCtas);
    o.num("peakPowerW", k.peakPowerW);
    o.num("avgPowerW", k.avgPowerW);
    o.num("energyJ", k.energyJ);
    o.num("peakWindowDynW", k.peakWindowDynW);
    o.u64("replayed", k.replayed ? 1 : 0);
    if (k.profile) {
        o.key("profile");
        appendProfile(out, *k.profile);
    }
    o.close();
}

void
appendLayerRun(std::string &out, const LayerRun &l)
{
    ObjWriter o(out);
    o.num("layerIndex", l.layerIndex);
    o.str("name", l.name);
    o.str("figType", l.figType);
    o.key("kernels");
    out += '[';
    for (size_t i = 0; i < l.kernels.size(); i++) {
        if (i)
            out += ',';
        appendKernelStats(out, l.kernels[i]);
    }
    out += ']';
    o.close();
}

// ---------------------------------------------------------------- reader

/** The shared pull reader (common/json.hh).  NetRuns are decoded
 *  straight from the text by key dispatch, with no Value tree.  Inside
 *  a NetRun the decoder is lenient, as a field-by-field lookup would
 *  be: an unknown key is skipped, a value of the wrong type leaves the
 *  field at its default, and a repeated key's last value wins. */
using Json = json::Reader;

/** A number, or @p dflt when the value is of another type. */
double
readNum(Json &p, double dflt)
{
    const char c = p.peek();
    if (c == '-' || (c >= '0' && c <= '9'))
        return p.number();
    const Json::Value v = p.value();   // "inf"/"nan", or another type
    return v.kind == Json::Value::Kind::Num ? v.num : dflt;
}

uint64_t
readU64(Json &p, uint64_t dflt = 0)
{
    return json::toU64(readNum(p, double(dflt)), dflt);
}

std::string
readStr(Json &p)
{
    if (p.peek() == '"')
        return p.string();
    p.value();
    return {};
}

/** Json::members(), or skip a value that is not an object. */
template <class F>
void
readObject(Json &p, F &&onKey)
{
    if (p.peek() == '{')
        p.members(onKey);
    else
        p.value();
}

/** Json::elements(), or skip a value that is not an array. */
template <class F>
void
readArray(Json &p, F &&onElement)
{
    if (p.peek() == '[')
        p.elements(onElement);
    else
        p.value();
}

StatSet
readStatSet(Json &p)
{
    StatSet st;
    readObject(p, [&](std::string_view name) {
        st.append(name, readNum(p, 0.0));
    });
    return st;
}

std::vector<uint64_t>
readU64Vec(Json &p)
{
    std::vector<uint64_t> out;
    readArray(p, [&] { out.push_back(readU64(p)); });
    return out;
}

sim::Dim3
readDim3(Json &p)
{
    const std::vector<uint64_t> xyz = readU64Vec(p);
    sim::Dim3 d;
    if (xyz.size() == 3) {
        d.x = static_cast<uint32_t>(xyz[0]);
        d.y = static_cast<uint32_t>(xyz[1]);
        d.z = static_cast<uint32_t>(xyz[2]);
    }
    return d;
}

std::vector<std::string>
readStrVec(Json &p)
{
    std::vector<std::string> out;
    readArray(p, [&] { out.push_back(readStr(p)); });
    return out;
}

std::shared_ptr<sim::KernelProfile>
readProfile(Json &p)
{
    auto prof = std::make_shared<sim::KernelProfile>();
    readObject(p, [&](std::string_view key) {
        if (key == "labels") {
            prof->labels = readStrVec(p);
        } else if (key == "pcLabel") {
            prof->pcLabel.clear();
            for (uint64_t id : readU64Vec(p))
                prof->pcLabel.push_back(static_cast<uint16_t>(id));
        } else if (key == "disasm") {
            prof->disasm = readStrVec(p);
        } else if (key == "issued") {
            prof->issued = readU64Vec(p);
        } else if (key == "stalls") {
            prof->stalls = readU64Vec(p);
        } else if (key == "l1dMisses") {
            prof->l1dMisses = readU64Vec(p);
        } else if (key == "l2Misses") {
            prof->l2Misses = readU64Vec(p);
        } else if (key == "dramTxns") {
            prof->dramTxns = readU64Vec(p);
        } else if (key == "lineBytes") {
            prof->lineBytes = static_cast<uint32_t>(readU64(p, 128));
        } else if (key == "scale") {
            prof->scale = readNum(p, 1.0);
        } else if (key == "workScale") {
            prof->workScale = readNum(p, 1.0);
        } else {
            p.value();
        }
    });
    if (prof->labels.empty())
        prof->labels.emplace_back();   // id 0 ("") must always exist
    return prof;
}

sim::KernelStats
readKernelStats(Json &p)
{
    sim::KernelStats k;
    const auto u32 = [&](uint32_t dflt = 0) {
        return static_cast<uint32_t>(readU64(p, dflt));
    };
    readObject(p, [&](std::string_view key) {
        if (key == "name")
            k.name = readStr(p);
        else if (key == "grid")
            k.grid = readDim3(p);
        else if (key == "block")
            k.block = readDim3(p);
        else if (key == "totalCtas")
            k.totalCtas = readU64(p);
        else if (key == "sampledCtas")
            k.sampledCtas = readU64(p);
        else if (key == "totalWarpsPerCta")
            k.totalWarpsPerCta = u32();
        else if (key == "sampledWarpsPerCta")
            k.sampledWarpsPerCta = u32();
        else if (key == "scale")
            k.scale = readNum(p, 1.0);
        else if (key == "smCycles")
            k.smCycles = readU64(p);
        else if (key == "gpuCycles")
            k.gpuCycles = readNum(p, 0.0);
        else if (key == "timeSec")
            k.timeSec = readNum(p, 0.0);
        else if (key == "activeSms")
            k.activeSms = u32(1);
        else if (key == "stats")
            k.stats = readStatSet(p);
        else if (key == "regsPerThread")
            k.regsPerThread = u32();
        else if (key == "maxLiveRegs")
            k.maxLiveRegs = u32();
        else if (key == "smemBytes")
            k.smemBytes = u32();
        else if (key == "cmemBytes")
            k.cmemBytes = u32();
        else if (key == "residentCtas")
            k.residentCtas = u32();
        else if (key == "occupancyCtas")
            k.occupancyCtas = u32();
        else if (key == "peakPowerW")
            k.peakPowerW = readNum(p, 0.0);
        else if (key == "avgPowerW")
            k.avgPowerW = readNum(p, 0.0);
        else if (key == "energyJ")
            k.energyJ = readNum(p, 0.0);
        else if (key == "peakWindowDynW")
            k.peakWindowDynW = readNum(p, 0.0);
        else if (key == "replayed")
            k.replayed = readU64(p) != 0;
        else if (key == "profile")
            k.profile = readProfile(p);
        else
            p.value();
    });
    return k;
}

LayerRun
readLayerRun(Json &p)
{
    LayerRun l;
    readObject(p, [&](std::string_view key) {
        if (key == "layerIndex") {
            l.layerIndex =
                static_cast<int>(static_cast<int64_t>(readNum(p, 0.0)));
        } else if (key == "name") {
            l.name = readStr(p);
        } else if (key == "figType") {
            l.figType = readStr(p);
        } else if (key == "kernels") {
            l.kernels.clear();
            readArray(p, [&] { l.kernels.push_back(readKernelStats(p)); });
        } else {
            p.value();
        }
    });
    return l;
}

} // namespace

NetRun
readNetRun(json::Reader &p)
{
    NetRun run;
    const auto u32 = [&] { return static_cast<uint32_t>(readU64(p)); };
    p.members([&](std::string_view key) {
        if (key == "netName")
            run.netName = readStr(p);
        else if (key == "deviceBytes")
            run.deviceBytes = readU64(p);
        else if (key == "totals")
            run.totals = readStatSet(p);
        else if (key == "totalTimeSec")
            run.totalTimeSec = readNum(p, 0.0);
        else if (key == "totalEnergyJ")
            run.totalEnergyJ = readNum(p, 0.0);
        else if (key == "peakPowerW")
            run.peakPowerW = readNum(p, 0.0);
        else if (key == "maxRegsPerThread")
            run.maxRegsPerThread = u32();
        else if (key == "maxLiveRegs")
            run.maxLiveRegs = u32();
        else if (key == "maxResidentWarps")
            run.maxResidentWarps = u32();
        else if (key == "checkFailures")
            run.checkFailures = readU64(p);
        else if (key == "estimated")
            run.estimated = readU64(p) != 0;
        else if (key == "estErrP50")
            run.estErrP50 = readNum(p, 0.0);
        else if (key == "estErrP95")
            run.estErrP95 = readNum(p, 0.0);
        else if (key == "layers") {
            run.layers.clear();
            readArray(p, [&] { run.layers.push_back(readLayerRun(p)); });
        } else
            p.value();
    });
    return run;
}

std::string
serializeNetRun(const NetRun &run)
{
    std::string out;
    out.reserve(4096);
    ObjWriter o(out);
    o.str("netName", run.netName);
    o.u64("deviceBytes", run.deviceBytes);
    o.key("totals");
    appendStatSet(out, run.totals);
    o.num("totalTimeSec", run.totalTimeSec);
    o.num("totalEnergyJ", run.totalEnergyJ);
    o.num("peakPowerW", run.peakPowerW);
    o.u64("maxRegsPerThread", run.maxRegsPerThread);
    o.u64("maxLiveRegs", run.maxLiveRegs);
    o.u64("maxResidentWarps", run.maxResidentWarps);
    o.u64("checkFailures", run.checkFailures);
    // Estimate-tier marker + error bounds; elided entirely for
    // simulated runs so their serialized form is byte-identical to
    // what it was before the estimate tier existed.
    if (run.estimated) {
        o.u64("estimated", 1);
        o.num("estErrP50", run.estErrP50);
        o.num("estErrP95", run.estErrP95);
    }
    o.key("layers");
    out += '[';
    for (size_t i = 0; i < run.layers.size(); i++) {
        if (i)
            out += ',';
        appendLayerRun(out, run.layers[i]);
    }
    out += ']';
    o.close();
    return out;
}

bool
parseNetRunJson(const std::string &text, NetRun &out)
{
    try {
        Json p(text);
        NetRun run = readNetRun(p);
        p.end();
        out = std::move(run);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

std::map<std::string, NetRun>
loadRunCache(const std::string &path)
{
    std::map<std::string, NetRun> out;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return out;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    // Walk the document token by token instead of parsing it wholesale:
    // a cache file with a truncated or corrupt tail (interrupted write,
    // disk full) then still yields every entry before the damage instead
    // of being discarded outright.
    Json p(text);
    bool inRuns = false;
    try {
        p.expect('{');
        int version = -1, statsVersion = 0;
        for (;;) {
            const std::string key = p.string();
            p.expect(':');
            if (key == "runs")
                break;
            const Json::Value v = p.value();
            if (key == "version")
                version = static_cast<int>(v.num);
            else if (key == "statsVersion")
                statsVersion = static_cast<int>(v.num);
            const char n = p.next();
            if (n == '}')
                return out;   // document ended without a runs section
            if (n != ',')
                throw std::runtime_error("json: expected , or }");
        }
        // A version mismatch discards the file wholesale (and silently),
        // exactly as before: mixing statistics from two simulator
        // revisions is worse than re-simulating.
        if (version != kRunCacheVersion || statsVersion != kSimStatsVersion)
            return out;

        inRuns = true;
        p.members([&](std::string_view key) {
            // Decoded into a local first: a damaged entry never lands.
            NetRun run = readNetRun(p);
            out.insert_or_assign(std::string(key), std::move(run));
        });
        // Trailing bytes after the runs object carry no entries; damage
        // there cannot invalidate what was parsed.
    } catch (const std::exception &) {
        if (!inRuns) {
            // Damage before the version fields: nothing is trustworthy.
            out.clear();
            return out;
        }
        warn("run cache '%s': corrupt tail discarded, %zu entr%s salvaged",
             path.c_str(), out.size(), out.size() == 1 ? "y" : "ies");
    }
    return out;
}

bool
saveRunCache(const std::string &path,
             const std::map<std::string, NetRun> &runs, uint64_t max_bytes)
{
    std::string out;
    out.reserve(runs.size() * 4096 + 64);
    out += "{\"version\":";
    out += std::to_string(kRunCacheVersion);
    out += ",\"statsVersion\":";
    out += std::to_string(kSimStatsVersion);
    out += ",\"runs\":{";
    bool first = true;
    size_t skipped = 0;
    for (const auto &[key, run] : runs) {
        std::string entry;
        if (!first)
            entry += ',';
        appendEscaped(entry, key);
        entry += ':';
        entry += serializeNetRun(run);
        // +3 for the closing "}}\n": the capped file is still complete,
        // valid JSON — just with fewer entries.
        if (max_bytes > 0 && out.size() + entry.size() + 3 > max_bytes) {
            skipped++;
            continue;
        }
        first = false;
        out += entry;
    }
    out += "}}\n";
    if (skipped > 0) {
        warn("run cache '%s': size cap %llu bytes reached, %zu of %zu "
             "entries not spilled",
             path.c_str(), static_cast<unsigned long long>(max_bytes),
             skipped, runs.size());
    }

    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return false;
        f << out;
        if (!f)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace tango::rt
