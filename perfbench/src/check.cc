#include "check.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "sim/digest.hh"

namespace perfbench {

namespace dg = tango::sim::digest;

namespace {

void
mixString(uint64_t &h, const std::string &s)
{
    dg::mix(h, s.size());
    dg::mixBytes(h, s.data(), s.size());
}

void
mixStats(uint64_t &h, const tango::StatSet &s)
{
    dg::mix(h, s.all().size());
    for (const auto &[name, v] : s.all()) {
        mixString(h, name);
        dg::mixDouble(h, v);
    }
}

} // namespace

bool
StatsSummary::operator==(const StatsSummary &o) const
{
    // Bit-for-bit: the simulator is deterministic, so equal work gives
    // identical doubles.
    return digest == o.digest &&
           std::memcmp(&issuedWinst, &o.issuedWinst, sizeof(double)) == 0 &&
           std::memcmp(&gpuCycles, &o.gpuCycles, sizeof(double)) == 0 &&
           std::memcmp(&l2Misses, &o.l2Misses, sizeof(double)) == 0;
}

StatsSummary
summarize(const tango::rt::NetRun &run)
{
    StatsSummary s;
    s.issuedWinst = run.totals.get("issued");
    s.l2Misses = run.totals.get("mem.l2.misses");
    uint64_t h = dg::kInit;
    mixString(h, run.netName);
    dg::mix(h, run.deviceBytes);
    dg::mix(h, run.layers.size());
    for (const auto &l : run.layers) {
        dg::mix(h, static_cast<uint64_t>(static_cast<int64_t>(l.layerIndex)));
        mixString(h, l.name);
        mixString(h, l.figType);
        dg::mix(h, l.kernels.size());
        for (const auto &k : l.kernels) {
            s.gpuCycles += k.gpuCycles;
            mixString(h, k.name);
            dg::mix(h, k.totalCtas);
            dg::mix(h, k.sampledCtas);
            dg::mix(h, k.smCycles);
            dg::mixDouble(h, k.scale);
            dg::mixDouble(h, k.gpuCycles);
            dg::mixDouble(h, k.timeSec);
            dg::mixDouble(h, k.energyJ);
            dg::mixDouble(h, k.peakPowerW);
            dg::mix(h, k.residentCtas);
            mixStats(h, k.stats);
        }
    }
    mixStats(h, run.totals);
    dg::mixDouble(h, run.totalTimeSec);
    dg::mixDouble(h, run.totalEnergyJ);
    dg::mixDouble(h, run.peakPowerW);
    dg::mix(h, run.maxRegsPerThread);
    dg::mix(h, run.maxLiveRegs);
    dg::mix(h, run.maxResidentWarps);
    dg::mix(h, run.checkFailures);
    dg::mix(h, run.estimated);
    dg::mixDouble(h, run.estErrP50);
    dg::mixDouble(h, run.estErrP95);
    s.digest = h;
    return s;
}

bool
loadReferences(const std::string &path, References &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read reference file '" + path + "'";
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    using Value = tango::json::Reader::Value;
    Value v;
    try {
        v = tango::json::Reader(buf.str()).parse();
    } catch (const std::exception &e) {
        err = "reference file '" + path + "': " + e.what();
        return false;
    }
    if (v.kind != Value::Kind::Obj) {
        err = "reference file '" + path + "' is not a JSON object";
        return false;
    }
    References refs;
    for (const auto &[key, e] : v.obj) {
        StatsSummary s;
        s.issuedWinst = e.numOr("issued_winst", -1.0);
        s.gpuCycles = e.numOr("gpu_cycles", -1.0);
        s.l2Misses = e.numOr("l2_misses", -1.0);
        const std::string d = e.strOr("digest");
        if (d.size() != 16 || std::sscanf(d.c_str(), "%16" SCNx64,
                                          &s.digest) != 1) {
            err = "reference '" + key + "' has no 16-hex-digit digest";
            return false;
        }
        refs[key] = s;
    }
    out = std::move(refs);
    return true;
}

std::string
referencesToJson(const References &refs)
{
    std::string out = "{\n";
    const char *sep = "";
    for (const auto &[key, s] : refs) {
        char digest[17];
        std::snprintf(digest, sizeof digest, "%016" PRIx64, s.digest);
        out += sep;
        out += "  ";
        tango::json::appendEscaped(out, key);
        out += ": ";
        tango::json::ObjWriter o(out);
        o.num("issued_winst", s.issuedWinst);
        o.num("gpu_cycles", s.gpuCycles);
        o.num("l2_misses", s.l2Misses);
        o.str("digest", digest);
        o.close();
        sep = ",\n";
    }
    out += "\n}\n";
    return out;
}

std::string
checkAgainst(const References &refs, const std::string &key,
             const StatsSummary &got)
{
    const auto it = refs.find(key);
    if (it == refs.end())
        return "no reference for " + key;
    if (it->second == got)
        return "";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s: issued %.17g (want %.17g), gpu cycles %.17g "
                  "(want %.17g), digest %016" PRIx64 " (want %016" PRIx64
                  ")",
                  key.c_str(), got.issuedWinst, it->second.issuedWinst,
                  got.gpuCycles, it->second.gpuCycles, got.digest,
                  it->second.digest);
    return buf;
}

} // namespace perfbench
