#include "figures.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/table.hh"
#include "fpga/pynq.hh"
#include "nn/models/models.hh"
#include "nn/weights.hh"
#include "profiler/profiler.hh"
#include "runtime/lowering.hh"
#include "runtime/report.hh"
#include "sim/power.hh"

namespace tango::bench {

namespace {

using Op = Predicate::Op;
using R = const Runs &;
using Run = const rt::NetRun &;
using Strings = std::vector<std::string>;
using sim::PowerComp;
using sim::Stall;

/** nn::models::allNames(): gru lstm cifarnet alexnet squeezenet resnet
 *  vggnet — the order the predicates below index runs by. */
const Strings &
allNets()
{
    static const Strings nets = nn::models::allNames();
    return nets;
}

const Strings cnns4 = {"cifarnet", "alexnet", "squeezenet", "resnet"};
const Strings schedNames = {"GTO", "LRR", "TLV"};

bool
isRnn(const std::string &net)
{
    return net == "gru" || net == "lstm";
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
share(const prof::Series &s, const std::string &label)
{
    for (const auto &[name, frac] : s) {
        if (name == label)
            return frac;
    }
    return 0.0;
}

/** One JobSpec per network, each adjusted by @p set. */
std::vector<rt::JobSpec>
perNet(const Strings &nets,
       const std::function<void(rt::JobSpec &)> &set = nullptr)
{
    std::vector<rt::JobSpec> grid;
    for (const auto &net : nets) {
        grid.push_back({net});
        if (set)
            set(grid.back());
    }
    return grid;
}

/** rt::printStacked of cell(group, label) for every group and label. */
void
stacked(std::ostream &os, const std::string &title, const Strings &groups,
        const Strings &labels,
        const std::function<double(size_t, size_t)> &cell,
        bool asPercent = false)
{
    std::vector<std::vector<double>> values(groups.size());
    for (size_t g = 0; g < groups.size(); g++) {
        for (size_t l = 0; l < labels.size(); l++)
            values[g].push_back(cell(g, l));
    }
    rt::printStacked(os, title, groups, labels, values, asPercent);
}

Figure
tab01()
{
    Figure f{"tab01"};
    f.print = [](std::ostream &os, R) {
        Table t("Table I: inputs, pre-trained models and outputs");
        t.header({"network", "input data", "pre-trained model", "output",
                  "layers", "params(M)", "MACs(M)"});
        for (const nn::RnnModel &m :   // the paper's Table I unroll
             {nn::models::buildGru(2), nn::models::buildLstm(2)}) {
            const std::string params =
                Table::num(double(m.paramCount()) / 1e6, 3);
            t.row({m.name,
                   "bitcoin prices of past two days (scaled, synthetic walk)",
                   "synthetic He-init (paper: kaggle bitcoin predictor)",
                   "projected next price",
                   std::to_string(m.seqLen) + " steps", params, params});
        }
        const char *const cnns[][4] = {
            {"cifarnet", "speed-limit-35 image (synthetic 3x32x32)",
             "synthetic He-init (paper: traffic-signal CifarNet)",
             "confidence for all 9 classes"},
            {"alexnet", "cat image (synthetic 3x227x227)",
             "synthetic He-init (paper: BVLC AlexNet)",
             "recognized class id"},
            {"squeezenet", "cat image (synthetic 3x227x227)",
             "synthetic He-init (paper: SqueezeNet v1.0)",
             "recognized class id"},
            {"resnet", "cat image (synthetic 3x224x224)",
             "synthetic He-init (paper: MSRA ResNet-50)",
             "recognized class id"},
            {"vggnet", "killer-whale image (synthetic 3x224x224)",
             "synthetic He-init (paper: VGG-16)", "recognized class id"},
        };
        for (const auto &c : cnns) {
            const nn::Network net = nn::models::buildCnn(c[0]);
            t.row({c[0], c[1], c[2], c[3],
                   std::to_string(net.layers().size()),
                   Table::num(double(net.totalParams()) / 1e6, 1),
                   Table::num(double(net.totalMacs()) / 1e6, 0)});
        }
        t.print(os);
    };
    return f;
}

Figure
tab02()
{
    Figure f{"tab02"};
    f.print = [](std::ostream &os, R) {
        const sim::GpuConfig cfgs[] = {sim::keplerGK210(), sim::maxwellTX1(),
                                       sim::pascalGP102()};
        Table t("Table II: GPU architectures used for evaluation");
        t.header({"parameter", "Server (GK210)", "Mobile (TX1)",
                  "Simulator (GP102)"});
        using C = const sim::GpuConfig &;
        auto row = [&](const char *name, auto get) {
            Strings cells = {name};
            for (C c : cfgs)
                cells.push_back(get(c));
            t.row(cells);
        };
        auto str = [](uint64_t v) { return std::to_string(v); };
        auto kb = [&](uint64_t bytes) { return str(bytes / 1024) + " KB"; };
        row("CUDA cores", [&](C c) { return str(c.numSms * c.coresPerSm); });
        row("SMs", [&](C c) { return str(c.numSms); });
        row("L1D per SM", [&](C c) { return kb(c.l1dBytes); });
        row("L2", [&](C c) { return kb(c.l2Bytes); });
        row("Registers per SM",
            [&](C c) { return str(c.regFileBytesPerSm / 4); });
        row("Shared mem per SM", [&](C c) { return kb(c.smemBytesPerSm); });
        row("Core clock",
            [](C c) { return Table::num(c.coreClockGhz, 3) + " GHz"; });
        row("Warp scheduler", [](C c) {
            return std::string(sim::schedName(c.scheduler)) +
                   " (default; lrr, tlv selectable)";
        });
        t.print(os);
        os << "\n";

        const fpga::PynqConfig p;
        Table fp("Table IV: FPGA platform used for evaluation (PynQ-Z1)");
        fp.header({"parameter", "value"});
        fp.row({"Programmable logic", "Xilinx Zynq Z7020 (modelled)"});
        fp.row({"DSP slices", str(p.dspSlices)});
        fp.row({"BRAM", kb(p.bramBytes)});
        fp.row({"Kernel clock", Table::num(p.clockMhz, 0) + " MHz"});
        fp.row({"DDR bandwidth share",
                Table::num(p.ddrBytesPerSec / 1e6, 0) + " MB/s"});
        fp.row({"Board power", Table::num(p.boardPowerW, 1) + " W"});
        fp.print(os);
    };
    return f;
}

Figure
tab03()
{
    Figure f{"tab03"};
    f.print = [](std::ostream &os, R) {
        auto dim = [](const sim::Dim3 &d) {
            return "(" + std::to_string(d.x) + "," + std::to_string(d.y) +
                   "," + std::to_string(d.z) + ")";
        };
        for (const auto &name : allNets()) {
            sim::Gpu gpu(sim::pascalGP102());
            const std::vector<rt::LoweredKernel> kernels =
                !isRnn(name)
                    ? rt::lower(nn::models::buildCnn(name), gpu.mem(), false)
                          .kernels
                    : rt::lowerRnn(name == "gru" ? nn::models::buildGru(2)
                                                 : nn::models::buildLstm(2),
                                   gpu.mem(), false)
                          .kernels;
            Table t("Table III (" + name +
                    "): kernel configuration and SRAM usage");
            t.header({"kernel", "gridDim", "blockDim", "regs", "smem",
                      "cmem"});
            for (const auto &k : kernels) {
                const auto &p = *k.launch.program;
                t.row({p.name, dim(k.launch.grid), dim(k.launch.block),
                       std::to_string(p.numRegs), std::to_string(p.smemBytes),
                       std::to_string(p.cmemBytes)});
            }
            t.print(os);
            os << "\n";
        }
    };
    return f;
}

double
timeShare(Run run, const std::string &fig)
{
    return ratio(run.figTypeTime(fig), run.totalTimeSec);
}

double
convFireShare(Run run)
{
    return timeShare(run, "Conv") + timeShare(run, "Fire_Squeeze") +
           timeShare(run, "Fire_Expand");
}

Figure
fig01()
{
    static const Strings nets = {"cifarnet", "alexnet", "squeezenet",
                                 "resnet", "vggnet"};
    static const Strings layers = {
        "Conv",        "Pooling", "FC",    "Norm", "Fire_Squeeze",
        "Fire_Expand", "Eltwise", "Scale", "Relu", "Others"};
    Figure f{"fig01", perNet(nets)};
    f.print = [](std::ostream &os, R r) {
        stacked(os, "Fig 1: execution time breakdown w.r.t. layer type",
                nets, layers,
                [&](size_t n, size_t l) { return timeShare(*r[n], layers[l]); },
                true);
        Table obs("Observation 1: convolution share of execution time");
        obs.header({"network", "conv(+fire) time share"});
        for (size_t n = 0; n < nets.size(); n++)
            obs.row({nets[n], Table::pct(convFireShare(*r[n]))});
        obs.print(os);
    };
    const auto conv = [](size_t n) {
        return [n](R r) { return convFireShare(*r[n]); };
    };
    f.predicates = {
        {1, "cifarnet conv(+fire) time share", conv(0), Op::Above, 0.9,
         Unit::Share},
        {1, "alexnet conv(+fire) time share", conv(1), Op::Above, 0.5,
         Unit::Share,
         "36.8% (FC takes 62.9%): each FC neuron is a single-thread block "
         "whose 9216-long dot product is a serial dependent chain, and "
         "this model exposes its latency more than Kepler hardware does"},
        {1, "squeezenet conv(+fire) time share", conv(2), Op::Above, 0.5,
         Unit::Share},
        {1, "resnet conv(+fire) time share", conv(3), Op::Above, 0.9,
         Unit::Share},
        {1, "vggnet conv(+fire) time share", conv(4), Op::Above, 0.5,
         Unit::Share},
        {0, "squeezenet fire-expand / plain conv time",
         [](R r) {
             return ratio(r[2]->figTypeTime("Fire_Expand"),
                          r[2]->figTypeTime("Conv"));
         },
         Op::Above, 1.0, Unit::Times,
         "0.989x (fire-expand 42.9%, plain conv 43.4%): conv10, 1000 1x1 "
         "filters over 512 channels at 13x13, alone takes 42.8% of "
         "SqueezeNet's time in this model"},
    };
    return f;
}

Figure
fig02()
{
    Figure f{"fig02"};
    for (const auto &net : allNets()) {
        for (uint32_t size : {0, 64 * 1024, 128 * 1024, 256 * 1024}) {
            f.grid.push_back({net});
            f.grid.back().l1dBytes = size;
        }
    }
    // Time of network n at the s-th L1D size, normalized to No L1.
    static const auto norm = [](R r, size_t n, size_t s) {
        return ratio(r[n * 4 + s]->totalTimeSec, r[n * 4]->totalTimeSec);
    };
    static const auto speedup = [](R r, size_t n) {
        return norm(r, n, 1) > 0 ? 1.0 / norm(r, n, 1) : 0.0;
    };
    f.print = [](std::ostream &os, R r) {
        stacked(os,
                "Fig 2: execution time vs L1D size (normalized to No L1)",
                allNets(), {"No L1", "L1(64K)", "2xL1", "4xL1"},
                [&](size_t n, size_t s) { return norm(r, n, s); });
        Table obs("Observation 2: 64KB-L1D speedup over bypassed L1");
        obs.header({"network", "speedup"});
        for (size_t n = 0; n < allNets().size(); n++)
            obs.row({allNets()[n], Table::num(speedup(r, n), 2) + "x"});
        obs.print(os);
    };
    for (size_t n = 0; n < allNets().size(); n++) {
        const bool rnn = isRnn(allNets()[n]);
        f.predicates.push_back({2, allNets()[n] + " 64KB-L1D speedup",
                                [n](R r) { return speedup(r, n); },
                                rnn ? Op::AtMost : Op::Above,
                                rnn ? 1.0 : 1.1, Unit::Times});
    }
    return f;
}

Figure
fig03()
{
    Figure f{"fig03", perNet(allNets())};
    f.print = [](std::ostream &os, R r) {
        Table t("Fig 3: peak power consumption across layers (W)");
        t.header({"network", "peak power (W)"});
        for (const rt::NetRun *run : r)
            t.row({run->netName, Table::num(run->peakPowerW, 1)});
        t.print(os);
    };
    f.predicates = {
        {3, "alexnet / cifarnet peak power (paper ~5x)",
         [](R r) { return ratio(r[3]->peakPowerW, r[2]->peakPowerW); },
         Op::Above, 2.0, Unit::Times},
        {3, "resnet / gru peak power",
         [](R r) { return ratio(r[5]->peakPowerW, r[0]->peakPowerW); },
         Op::Above, 2.0, Unit::Times},
    };
    return f;
}

/** Average power of a layer type: its energy over its time. */
double
avgPower(Run run, const std::string &fig)
{
    return ratio(run.figTypeEnergy(fig), run.figTypeTime(fig));
}

Figure
fig04()
{
    static const Strings layers = {"Conv",  "Pooling", "FC",
                                   "Norm",  "Fire",    "Relu",
                                   "Scale", "Eltwise", "Others"};
    Figure f{"fig04", perNet(cnns4)};
    f.print = [](std::ostream &os, R r) {
        stacked(os, "Fig 4: average power per layer type (W)", cnns4, layers,
                [&](size_t n, size_t l) { return avgPower(*r[n], layers[l]); });
    };
    f.predicates = {
        {4, "cifarnet pooling / conv power",
         [](R r) {
             return ratio(avgPower(*r[0], "Pooling"), avgPower(*r[0], "Conv"));
         },
         Op::Above, 0.5, Unit::Times},
        {4, "cifarnet pooling / conv time (for contrast)",
         [](R r) {
             return ratio(r[0]->figTypeTime("Pooling"),
                          r[0]->figTypeTime("Conv"));
         },
         Op::Below, 0.1, Unit::Times},
        {4, "resnet min(Scale, Relu, Norm) / conv power",
         [](R r) {
             return ratio(std::min({avgPower(*r[3], "Scale"),
                                    avgPower(*r[3], "Relu"),
                                    avgPower(*r[3], "Norm")}),
                          avgPower(*r[3], "Conv"));
         },
         Op::Above, 0.8, Unit::Times},
    };
    return f;
}

/** A run's energy per power component, recomputed from its counters. */
sim::PowerBreakdown
powerBreakdown(Run run)
{
    const sim::GpuConfig cfg = rt::JobSpec{run.netName}.gpuConfig();
    double gpuCycles = 0.0;
    for (const auto &l : run.layers)
        gpuCycles += l.gpuCycles();
    return sim::computeBreakdown(run.totals, cfg, gpuCycles, cfg.numSms);
}

/** The energy of @p comp over that of the largest dynamic (per-access)
 *  component besides it: any but idle-core and constant power, which
 *  both scale with cycles alone. */
double
dynamicLead(Run run, PowerComp comp)
{
    const sim::PowerBreakdown pb = powerBreakdown(run);
    double other = 0.0;
    for (size_t c = 0; c < sim::numPowerComps; c++) {
        const auto pc = static_cast<PowerComp>(c);
        if (pc != comp && pc != PowerComp::IDLE_CORE &&
            pc != PowerComp::CONST_DYNAMIC)
            other = std::max(other, pb.energyJ[c]);
    }
    return ratio(pb.energyJ[size_t(comp)], other);
}

Figure
fig05()
{
    Figure f{"fig05", perNet(allNets())};
    f.print = [](std::ostream &os, R r) {
        Strings comps;
        for (size_t c = 0; c < sim::numPowerComps; c++)
            comps.push_back(sim::powerCompName(static_cast<PowerComp>(c)));
        std::vector<sim::PowerBreakdown> pb;
        for (const rt::NetRun *run : r)
            pb.push_back(powerBreakdown(*run));
        stacked(os,
                "Fig 5: breakdown of average power w.r.t. HW components",
                allNets(), comps,
                [&](size_t n, size_t c) {
                    return ratio(pb[n].energyJ[c], pb[n].totalJ());
                },
                true);
    };
    const auto lead = [](size_t n, PowerComp comp) {
        return [n, comp](R r) { return dynamicLead(*r[n], comp); };
    };
    for (size_t n = 0; n < allNets().size(); n++) {
        f.predicates.push_back(
            {5, allNets()[n] + " idle core / top dynamic power component",
             lead(n, PowerComp::IDLE_CORE), Op::Above, 1.0, Unit::Times});
    }
    for (size_t n : {3, 6}) {   // alexnet, vggnet
        f.predicates.push_back(
            {5, allNets()[n] + " RF / next dynamic power component",
             lead(n, PowerComp::RF), Op::Above, 1.0, Unit::Times});
    }
    return f;
}

/** TX1 and PynQ time and peak power of one network.  The paper computes
 *  energy as peak power x execution time (the Wattsup meter reports
 *  power, not energy). */
struct GpuVsFpga
{
    double gpuTime, fpgaTime, gpuPeak, fpgaPeak;

    double gpuEnergy() const { return gpuPeak * gpuTime; }
    double fpgaEnergy() const { return fpgaPeak * fpgaTime; }
    double energyRatio() const { return ratio(gpuEnergy(), fpgaEnergy()); }
};

GpuVsFpga
gpuVsFpga(Run gpu)
{
    const fpga::FpgaRun fp = fpga::runOnPynq(nn::models::buildCnn(gpu.netName));
    return {gpu.totalTimeSec, fp.totalTimeSec, gpu.peakPowerW, fp.peakPowerW};
}

Figure
fig06()
{
    Figure f{"fig06", perNet({"cifarnet", "squeezenet"}, [](auto &spec) {
                 spec.platform = "TX1";
                 spec.l1dBytes = sim::maxwellTX1().l1dBytes;
             })};
    f.print = [](std::ostream &os, R r) {
        Table t("Fig 6: energy on embedded GPU (TX1) vs embedded FPGA "
                "(PynQ)");
        t.header({"network", "TX1 time(ms)", "PynQ time(ms)", "TX1 peak(W)",
                  "PynQ peak(W)", "TX1 energy(mJ)", "PynQ energy(mJ)",
                  "TX1/PynQ energy"});
        for (const rt::NetRun *run : r) {
            const GpuVsFpga g = gpuVsFpga(*run);
            t.row({run->netName, Table::num(g.gpuTime * 1e3, 2),
                   Table::num(g.fpgaTime * 1e3, 2), Table::num(g.gpuPeak, 1),
                   Table::num(g.fpgaPeak, 1),
                   Table::num(g.gpuEnergy() * 1e3, 1),
                   Table::num(g.fpgaEnergy() * 1e3, 1),
                   Table::num(g.energyRatio(), 2) + "x"});
        }
        t.print(os);
    };
    using G = const GpuVsFpga &;
    const auto on = [](size_t n, double (*m)(G)) {
        return [n, m](R r) { return m(gpuVsFpga(*r[n])); };
    };
    const auto faster = [](G g) { return ratio(g.fpgaTime, g.gpuTime); };
    const auto hungrier = [](G g) { return ratio(g.gpuPeak, g.fpgaPeak); };
    const auto energy = [](G g) { return g.energyRatio(); };
    for (size_t n : {0, 1}) {
        const std::string net = n ? "squeezenet " : "cifarnet ";
        f.predicates.insert(
            f.predicates.end(),
            {{0, net + "PynQ / TX1 time (TX1 faster)", on(n, faster),
              Op::Above, 1.0, Unit::Times},
             {0, net + "TX1 / PynQ peak power", on(n, hungrier), Op::Above,
              1.0, Unit::Times},
             {0, net + "TX1 / PynQ energy", on(n, energy), Op::Above, 1.0,
              Unit::Times},
             {0, net + "TX1 / PynQ energy, paper band low", on(n, energy),
              Op::AtLeast, 1.3, Unit::Times},
             {0, net + "TX1 / PynQ energy, paper band high", on(n, energy),
              Op::AtMost, 2.2, Unit::Times,
              !n ? ""
                 : "2.29x (paper 1.74x): the TX1 runs SqueezeNet only 1.5x "
                   "faster than the PynQ model (paper 1.8x) while drawing "
                   "3.5x its peak power"}});
    }
    return f;
}

/** Stall shares of a figure column, in sim::Stall order; ResNet's
 *  "Others" gathers its Scale/Relu/Eltwise/Others layers. */
prof::Series
stalls(Run run, const std::string &fig)
{
    if (fig != "Others")
        return prof::stallBreakdown(run.figTypeStats(fig));
    StatSet st;
    for (const char *f : {"Scale", "Relu", "Eltwise", "Others"})
        st.merge(run.figTypeStats(f));
    return prof::stallBreakdown(st);
}

double
stallShare(Run run, const std::string &fig,
           std::initializer_list<Stall> which)
{
    const prof::Series sb = stalls(run, fig);
    double total = 0.0;
    for (Stall s : which)
        total += sb.empty() ? 0.0 : sb[size_t(s)].second;
    return total;
}

Figure
fig07()
{
    // Figure layer types per network, in the paper's column order.
    static const std::vector<std::pair<std::string, Strings>> cols = {
        {"gru", {"GRU"}},
        {"lstm", {"LSTM"}},
        {"cifarnet", {"Conv", "Pooling", "FC"}},
        {"alexnet", {"Conv", "Pooling", "FC", "Norm"}},
        {"squeezenet", {"Conv", "Pooling", "Fire"}},
        {"resnet", {"Conv", "Pooling", "FC", "Norm", "Others"}},
        {"vggnet", {"Conv", "Pooling", "FC"}},
    };
    Figure f{"fig07", perNet(allNets(), [](rt::JobSpec &spec) {
                 spec.platform = "GK210";
                 spec.l1dBytes = sim::keplerGK210().l1dBytes;
                 spec.policy = "stall";   // near-hardware warp residency
             })};
    static const auto mem = {Stall::MemoryThrottle, Stall::MemoryDependency};
    static const auto dep = {Stall::ExecDependency, Stall::MemoryDependency};
    f.print = [](std::ostream &os, R r) {
        Strings groups, stallNames;
        std::vector<prof::Series> series;
        for (size_t n = 0; n < cols.size(); n++) {
            for (const auto &fig : cols[n].second) {
                if (const prof::Series sb = stalls(*r[n], fig); !sb.empty()) {
                    groups.push_back(cols[n].first + ":" + fig);
                    series.push_back(sb);
                }
            }
        }
        for (size_t i = 0; i < sim::numStalls; i++)
            stallNames.push_back(sim::stallName(static_cast<Stall>(i)));
        stacked(os,
                "Fig 7: breakdown of stall cycles per layer type (GK210)",
                groups, stallNames,
                [&](size_t g, size_t s) { return series[g][s].second; },
                true);

        Table obs("Fig 7 headline patterns");
        obs.header({"pattern", "value"});
        obs.row({"alexnet FC memory_throttle+mem_dep",
                 Table::pct(stallShare(*r[3], "FC", mem))});
        obs.row({"alexnet Conv pipe_busy",
                 Table::pct(stallShare(*r[3], "Conv", {Stall::PipeBusy}))});
        obs.row({"alexnet Pooling exec_dependency",
                 Table::pct(stallShare(*r[3], "Pooling",
                                       {Stall::ExecDependency}))});
        obs.row({"lstm exec+mem dependency",
                 Table::pct(stallShare(*r[1], "LSTM", dep))});
        obs.print(os);
    };
    f.predicates = {
        {0, "alexnet FC / conv memory-stall share",
         [](R r) {
             return ratio(stallShare(*r[3], "FC", mem),
                          stallShare(*r[3], "Conv", mem));
         },
         Op::Above, 1.0, Unit::Times},
        {0, "lstm / gru dependency-stall share",
         [](R r) {
             return ratio(stallShare(*r[1], "LSTM", dep),
                          stallShare(*r[0], "GRU", dep));
         },
         Op::Above, 1.0, Unit::Times},
    };
    return f;
}

/** Each run's operation mix. */
std::vector<prof::Series>
opMixes(R runs)
{
    std::vector<prof::Series> out;
    for (const rt::NetRun *run : runs)
        out.push_back(prof::opBreakdown(run->totals));
    return out;
}

/** Total-variation distance between two operation mixes. */
double
mixDistance(const prof::Series &a, const prof::Series &b)
{
    std::map<std::string, double> diff;
    for (const auto &[op, frac] : a)
        diff[op] += frac;
    for (const auto &[op, frac] : b)
        diff[op] -= frac;
    double d = 0.0;
    for (const auto &[op, v] : diff)
        d += std::abs(v);
    return d / 2;
}

Figure
fig08()
{
    Figure f{"fig08", perNet(allNets())};
    f.print = [](std::ostream &os, R r) {
        const std::vector<prof::Series> mix = opMixes(r);
        Strings ops;   // every opcode that appears anywhere, sorted
        for (const auto &s : mix) {
            for (const auto &[op, frac] : s) {
                if (std::find(ops.begin(), ops.end(), op) == ops.end())
                    ops.push_back(op);
            }
        }
        std::sort(ops.begin(), ops.end());
        stacked(os, "Fig 8: operation type breakdown", allNets(), ops,
                [&](size_t n, size_t o) { return share(mix[n], ops[o]); },
                true);

        Table obs("Fig 8 headline: add+mad+mul+shl share");
        obs.header({"network", "share"});
        for (size_t n = 0; n < mix.size(); n++) {
            double s = 0.0;
            for (const auto &[op, frac] : mix[n]) {
                if (op == "add" || op == "mad" || op == "mul" || op == "shl")
                    s += frac;
            }
            obs.row({allNets()[n], Table::pct(s)});
        }
        obs.print(os);
    };
    f.predicates = {
        {6, "largest same-class / smallest RNN-CNN op-mix distance",
         [](R r) {
             const std::vector<prof::Series> mix = opMixes(r);
             double within = 0.0, across = 1.0;
             for (size_t a = 0; a < mix.size(); a++) {
                 for (size_t b = a + 1; b < mix.size(); b++) {
                     const double d = mixDistance(mix[a], mix[b]);
                     if (isRnn(allNets()[a]) == isRnn(allNets()[b]))
                         within = std::max(within, d);
                     else
                         across = std::min(across, d);
                 }
             }
             return ratio(within, across);
         },
         Op::Below, 1.0, Unit::Times},
        {6, "smallest CNN / largest RNN mul share",
         [](R r) {
             const std::vector<prof::Series> mix = opMixes(r);
             double cnn = 1.0, rnn = 0.0;
             for (size_t n = 0; n < mix.size(); n++) {
                 const double mul = share(mix[n], "mul");
                 if (isRnn(allNets()[n]))
                     rnn = std::max(rnn, mul);
                 else
                     cnn = std::min(cnn, mul);
             }
             return ratio(cnn, rnn);
         },
         Op::Above, 1.0, Unit::Times},
    };
    return f;
}

/** Share of the top @p n operations over every network's run. */
double
topOpsShare(R runs, size_t n)
{
    const prof::Series all = prof::opBreakdown(prof::mergeTotals(runs));
    double s = 0.0;
    for (size_t i = 0; i < all.size() && i < n; i++)
        s += all[i].second;
    return s;
}

Figure
fig09()
{
    Figure f{"fig09", perNet(allNets())};
    f.print = [](std::ostream &os, R r) {
        rt::printSeries(
            os,
            "Fig 9: total operations breakdown across all networks (top 10)",
            prof::topN(prof::opBreakdown(prof::mergeTotals(r)), 10),
            /*as_percent=*/true);
    };
    f.predicates = {
        {7, "top-4 operations share", [](R r) { return topOpsShare(r, 4); },
         Op::Above, 0.5, Unit::Share},
        {7, "top-10 operations share (paper ~95%)",
         [](R r) { return topOpsShare(r, 10); }, Op::Above, 0.9,
         Unit::Share},
    };
    return f;
}

double
dtypeShare(Run run, const char *type)
{
    return share(prof::dtypeBreakdown(run.totals), type);
}

Figure
fig10()
{
    Figure f{"fig10", {{"resnet"}}};
    f.print = [](std::ostream &os, R r) {
        const rt::NetRun &run = *r[0];
        // Every Nth layer in invocation order, so the table stays
        // readable (ResNet-50 has ~175 layers).
        Table t("Fig 10: instruction type breakdown through ResNet "
                "execution");
        t.header({"layer", "f32", "u32", "u16", "s32", "s16"});
        const size_t step = std::max<size_t>(1, run.layers.size() / 24);
        for (size_t i = 0; i < run.layers.size(); i += step) {
            StatSet st;
            for (const auto &k : run.layers[i].kernels)
                st.merge(k.stats);
            Strings row = {run.layers[i].name};
            for (const auto &[name, frac] : prof::dtypeBreakdown(st))
                row.push_back(Table::pct(frac));
            t.row(row);
        }
        t.print(os);
        rt::printSeries(os, "Fig 10 (aggregate): ResNet dtype mix",
                        prof::dtypeBreakdown(run.totals),
                        /*as_percent=*/true);
    };
    f.predicates = {
        {8, "resnet f32 share (paper ~20% and below)",
         [](R r) { return dtypeShare(*r[0], "f32"); }, Op::AtMost, 0.2,
         Unit::Share},
        {8, "resnet unsigned-int (u32+u16) share",
         [](R r) {
             return dtypeShare(*r[0], "u32") + dtypeShare(*r[0], "u16");
         },
         Op::Above, 0.5, Unit::Share},
    };
    return f;
}

Figure
fig11()
{
    Figure f{"fig11", perNet(allNets(), [](rt::JobSpec &spec) {
                 spec.platform = "TX1";
                 spec.l1dBytes = sim::maxwellTX1().l1dBytes;
             })};
    f.print = [](std::ostream &os, R r) {
        Table t("Fig 11: max device memory usage (KB, TX1)");
        t.header({"network", "device memory (KB)", "log10(KB)"});
        for (const rt::NetRun *run : r) {
            const double kb = static_cast<double>(run->deviceBytes) / 1024.0;
            t.row({run->netName, Table::num(kb, 0),
                   Table::num(kb > 0 ? std::log10(kb) : 0.0, 2)});
        }
        t.print(os);
    };
    for (size_t n = 0; n < allNets().size(); n++) {
        const std::string &net = allNets()[n];
        f.predicates.push_back(
            {9, net + " device memory",
             [n](R r) { return r[n]->deviceBytes / 1024.0; },
             isRnn(net) ? Op::Below : Op::AtLeast,
             isRnn(net) ? 500.0 : 1024.0, Unit::KB,
             net != "cifarnet"
                 ? ""
                 : "675 KB: the model is that small (0.1 M parameters, "
                   "0.4 MB of f32 weights, 32x32 activations) and the "
                   "simulator counts only the buffers its kernels use"});
    }
    return f;
}

/** Per-SM register file use at a run's widest kernel, in KB: allocated
 *  (regs/thread x resident threads) and live. */
std::pair<double, double>
registerUse(Run run)
{
    double alloc = 0.0, live = 0.0;
    for (const auto &l : run.layers) {
        for (const auto &k : l.kernels) {
            // Hardware occupancy, not the simulation's warp budget.
            const double threads =
                double(k.occupancyCtas) * double(k.block.count());
            alloc = std::max(alloc, k.regsPerThread * threads * 4 / 1024.0);
            live = std::max(live, k.maxLiveRegs * threads * 4 / 1024.0);
        }
    }
    return {alloc, live};
}

Figure
fig12()
{
    static const double rfKb = sim::pascalGP102().regFileBytesPerSm / 1024.0;
    Figure f{"fig12", perNet(allNets())};
    f.print = [](std::ostream &os, R r) {
        Table t("Fig 12: per-SM register file usage (KB; RF = " +
                Table::num(rfKb, 0) + " KB)");
        t.header({"network", "max allocated (KB)", "max live (KB)",
                  "allocated share"});
        for (const rt::NetRun *run : r) {
            const auto [alloc, live] = registerUse(*run);
            t.row({run->netName, Table::num(alloc, 1), Table::num(live, 1),
                   Table::pct(alloc / rfKb)});
        }
        t.print(os);
    };
    f.predicates = {
        {10, "gru max allocated registers",
         [](R r) { return registerUse(*r[0]).first; }, Op::Below, 20.0,
         Unit::KB},
        {10, "lstm max allocated registers",
         [](R r) { return registerUse(*r[1]).first; }, Op::Below, 20.0,
         Unit::KB},
        {10, "largest live / allocated registers over all networks",
         [](R r) {
             double worst = 0.0;
             for (const rt::NetRun *run : r) {
                 const auto [alloc, live] = registerUse(*run);
                 worst = std::max(worst, ratio(live, alloc));
             }
             return worst;
         },
         Op::Below, 1.0, Unit::Times},
        {10, "alexnet allocated share of the register file",
         [](R r) { return registerUse(*r[3]).first / rfKb; }, Op::Below, 1.0,
         Unit::Share,
         "100%: these kernels allocate up to 37 registers/thread where the "
         "paper's compiler reports 8-31, so AlexNet's widest kernel fills "
         "the 256 KB file (paper ~60%)"},
    };
    return f;
}

/** The Figs 13/14 grid: L1D bypassed, mem policy (cross-CTA reuse). */
std::vector<rt::JobSpec>
l2Grid()
{
    return perNet(cnns4, [](rt::JobSpec &spec) {
        spec.l1dBytes = 0;
        spec.policy = "mem";
    });
}

const Strings l2Layers = {"Conv", "Pooling", "FC",    "Norm",
                          "Fire", "Relu",    "Scale", "Eltwise"};

double
l2Misses(Run run, const std::string &fig)
{
    return run.figTypeStat(fig, "mem.l2.misses");
}

double
l2MissRatio(Run run, const std::string &fig)
{
    return ratio(l2Misses(run, fig), run.figTypeStat(fig, "mem.l2.accesses"));
}

/** Mean L2 miss ratio of a layer type over the networks that have it. */
double
fleetMissRatio(R runs, const std::string &fig)
{
    double sum = 0.0;
    int n = 0;
    for (const rt::NetRun *run : runs) {
        const double r = l2MissRatio(*run, fig);
        sum += r;
        n += r > 0;
    }
    return n ? sum / n : 0.0;
}

Figure
fig13()
{
    Figure f{"fig13", l2Grid()};
    f.print = [](std::ostream &os, R r) {
        stacked(os, "Fig 13: total L2 misses per layer type (no L1D)", cnns4,
                l2Layers,
                [&](size_t n, size_t l) {
                    return l2Misses(*r[n], l2Layers[l]);
                });
    };
    f.predicates = {
        {0, "alexnet FC / conv L2 misses",
         [](R r) {
             return ratio(l2Misses(*r[1], "FC"), l2Misses(*r[1], "Conv"));
         },
         Op::Above, 1.0, Unit::Times},
    };
    return f;
}

Figure
fig14()
{
    Figure f{"fig14", l2Grid()};
    f.print = [](std::ostream &os, R r) {
        stacked(os, "Fig 14: L2 miss ratio per layer type (no L1D)", cnns4,
                l2Layers, [&](size_t n, size_t l) {
                    return l2MissRatio(*r[n], l2Layers[l]);
                });
    };
    f.predicates = {
        {11, "fleet-average conv / FC L2 miss ratio",
         [](R r) {
             return ratio(fleetMissRatio(r, "Conv"), fleetMissRatio(r, "FC"));
         },
         Op::Below, 1.0, Unit::Times},
        {11, "alexnet conv / FC L2 miss ratio",
         [](R r) {
             return ratio(l2MissRatio(*r[1], "Conv"),
                          l2MissRatio(*r[1], "FC"));
         },
         Op::Below, 1.0, Unit::Times},
    };
    return f;
}

/** @p nets under GTO, LRR and TLV, with the stall policy (scheduling
 *  needs warps to pick from). */
std::vector<rt::JobSpec>
schedulerSweep(const Strings &nets)
{
    std::vector<rt::JobSpec> grid;
    for (const auto &net : nets) {
        for (auto sched : {sim::SchedPolicy::GTO, sim::SchedPolicy::LRR,
                           sim::SchedPolicy::TLV}) {
            grid.push_back({net});
            grid.back().sched = sched;
            grid.back().policy = "stall";
        }
    }
    return grid;
}

Figure
fig15()
{
    Figure f{"fig15", schedulerSweep(allNets())};
    // Time of network n under scheduler s, normalized to GTO.
    static const auto norm = [](R r, size_t n, size_t s) {
        return ratio(r[n * 3 + s]->totalTimeSec, r[n * 3]->totalTimeSec);
    };
    f.print = [](std::ostream &os, R r) {
        stacked(os,
                "Fig 15: warp scheduler sensitivity (exec time normalized "
                "to GTO)",
                allNets(), schedNames,
                [&](size_t n, size_t s) { return norm(r, n, s); });
    };
    for (size_t n = 0; n < allNets().size(); n++) {
        const std::string &net = allNets()[n];
        if (isRnn(net)) {
            f.predicates.push_back(
                {12, net + " |LRR / GTO - 1| (barely reacts)",
                 [n](R r) { return std::abs(norm(r, n, 1) - 1); }, Op::Below,
                 0.02, Unit::Share});
            continue;
        }
        f.predicates.push_back(
            {12, net + " LRR / GTO time (as fast, within 1%)",
             [n](R r) { return norm(r, n, 1); }, Op::AtMost, 1.01,
             Unit::Times,
             net != "vggnet"
                 ? ""
                 : "1.20x: VGG's small 2x2/4x4 blocks at high co-residency "
                   "favour GTO in this model; the paper shows VGG roughly "
                   "neutral"});
    }
    return f;
}

Figure
fig16()
{
    Figure f{"fig16", schedulerSweep({"alexnet"})};
    f.print = [](std::ostream &os, R r) {
        Strings layers;
        for (const auto &l : r[0]->layers)
            layers.push_back(l.name);
        stacked(os,
                "Fig 16: per-layer warp scheduler sensitivity of AlexNet "
                "(normalized to GTO)",
                schedNames, layers, [&](size_t s, size_t l) {
                    return ratio(r[s]->layers[l].timeSec(),
                                 r[0]->layers[l].timeSec());
                });
    };
    // AlexNet's time in @p fig layers under LRR over that under GTO.
    static const auto lrr = [](R r, const char *fig) {
        return ratio(r[1]->figTypeTime(fig), r[0]->figTypeTime(fig));
    };
    f.predicates = {
        {0, "alexnet conv-layer LRR / GTO time",
         [](R r) { return lrr(r, "Conv"); }, Op::Below, 1.0, Unit::Times},
        {0, "alexnet conv-layer / FC-layer LRR gain",
         [](R r) { return ratio(lrr(r, "Conv"), lrr(r, "FC")); }, Op::Below,
         1.0, Unit::Times},
    };
    return f;
}

Figure
extMobilenet()
{
    static const uint32_t l1s[] = {0, 64 * 1024, 128 * 1024};
    Figure f{"ext_mobilenet", {{"mobilenet"}, {"alexnet"}}};
    for (uint32_t l1 : l1s) {
        f.grid.push_back({"mobilenet"});
        f.grid.back().l1dBytes = l1;
    }
    f.print = [](std::ostream &os, R r) {
        Table t("MobileNet v1 (extension) vs AlexNet");
        t.header({"metric", "mobilenet", "alexnet"});
        auto row = [&](const char *metric, auto get, int prec) {
            t.row({metric, Table::num(get(*r[0]), prec),
                   Table::num(get(*r[1]), prec)});
        };
        row("est. time (ms)", [](Run x) { return x.totalTimeSec * 1e3; }, 2);
        row("device memory (KB)",
            [](Run x) { return double(x.deviceBytes) / 1024; }, 0);
        row("thread instructions",
            [](Run x) { return x.totals.sumPrefix("op."); }, 0);
        row("peak power (W)", [](Run x) { return x.peakPowerW; }, 1);
        t.print(os);

        rt::printSeries(os, "MobileNet: execution time per layer type",
                        prof::layerTimeBreakdown(*r[0]), true);
        rt::printSeries(os, "MobileNet: top operations",
                        prof::topN(prof::opBreakdown(r[0]->totals), 8), true);

        // The Fig 2 L1D sweep for the new network.
        Table sweep("MobileNet: L1D sensitivity (normalized to No L1)");
        sweep.header({"config", "norm. time"});
        for (size_t i = 0; i < 3; i++) {
            sweep.row({l1s[i] ? std::to_string(l1s[i] / 1024) + "KB"
                              : "No L1",
                       Table::num(ratio(r[2 + i]->totalTimeSec,
                                        r[2]->totalTimeSec),
                                  3)});
        }
        sweep.print(os);
    };
    f.predicates = {
        {0, "mobilenet / alexnet device memory",
         [](R r) { return ratio(r[0]->deviceBytes, r[1]->deviceBytes); },
         Op::Below, 1.0, Unit::Times},
        {0, "mobilenet conv time share",
         [](R r) { return timeShare(*r[0], "Conv"); }, Op::Above, 0.9,
         Unit::Share},
    };
    return f;
}

Figure
extQuantization()
{
    Figure f{"ext_quantization"};
    // The f32 variant shares the standard JobSpec cache entry; the s16
    // one (conv weights quantized to Q15) gets "+quant".
    for (const char *name : {"cifarnet", "alexnet"}) {
        for (bool quant : {false, true}) {
            const rt::JobSpec base{name};
            f.custom.push_back(
                {base.cacheKey().str + (quant ? "+quant" : ""),
                 base.gpuConfig(), [name, quant](sim::Gpu &gpu) {
                     nn::AnyModel model = nn::models::buildAny(name);
                     if (quant) {
                         // The timing-only run needs the quantizer's
                         // flags, and the quantizer needs weights.
                         nn::initWeights(model);
                         nn::quantizeConvWeights(model.cnn());
                     }
                     return rt::Runtime(gpu).run(
                         model, rt::RunPolicy::named("bench"));
                 }});
        }
    }
    f.print = [](std::ostream &os, R r) {
        Table t("Weight quantization: f32 vs s16 (Q15) conv weights");
        t.header({"network", "variant", "device mem (KB)", "time (ms)",
                  "f32 ops", "s16 ops"});
        for (size_t i = 0; i < r.size(); i++) {
            t.row({r[i]->netName, i % 2 ? "s16-quant" : "f32",
                   Table::num(double(r[i]->deviceBytes) / 1024, 0),
                   Table::num(r[i]->totalTimeSec * 1e3, 2),
                   Table::pct(dtypeShare(*r[i], "f32")),
                   Table::pct(dtypeShare(*r[i], "s16"))});
        }
        t.print(os);
    };
    for (size_t n : {0, 1}) {   // runs 2n (f32) and 2n + 1 (s16)
        const std::string net = n ? "alexnet" : "cifarnet";
        f.predicates.push_back(
            {0, net + " s16 / f32 device memory",
             [n](R r) {
                 return ratio(r[2 * n + 1]->deviceBytes, r[2 * n]->deviceBytes);
             },
             Op::Below, 1.0, Unit::Times});
        f.predicates.push_back(
            {0, net + " s16 share of typed instructions, quantized",
             [n](R r) { return dtypeShare(*r[2 * n + 1], "s16"); }, Op::Above,
             0.0, Unit::Share});
    }
    return f;
}

double
instrError(Run run, Run exact)
{
    return run.totals.sumPrefix("op.") / exact.totals.sumPrefix("op.") - 1.0;
}

Figure
ablSampling()
{
    const rt::RunPolicy exact = rt::RunPolicy::named("exact");
    rt::RunPolicy warp = exact, loop = exact;
    warp.sim.fullSim = loop.sim.fullSim = false;
    warp.sim.maxWarpsPerCta = 6;
    loop.maxLoopChannels = 8;
    const std::pair<const char *, rt::RunPolicy> variants[] = {
        {"exact", exact},
        {"warp", warp},
        {"loop", loop},
        {"bench", rt::RunPolicy::named("bench")}};
    Figure f{"abl_sampling"};
    for (const auto &[tag, p] : variants) {
        f.custom.push_back({std::string("abl/cifarnet/") + tag,
                            sim::pascalGP102(), [p = p](sim::Gpu &gpu) {
                                return rt::runNetworkByName(gpu, "cifarnet",
                                                            p);
                            }});
    }
    f.print = [](std::ostream &os, R r) {
        static const char *const names[] = {
            "exact", "warp-sampled (6/CTA)", "loop-sampled (8 ch)",
            "bench policy (all)"};
        Table t("Sampling-fidelity ablation (CifarNet, GP102)");
        t.header({"policy", "time (ms)", "time err", "instrs", "instr err",
                  "L2 misses", "conv share"});
        for (size_t i = 0; i < r.size(); i++) {
            const rt::NetRun &run = *r[i];
            t.row({names[i], Table::num(run.totalTimeSec * 1e3, 3),
                   Table::pct(run.totalTimeSec / r[0]->totalTimeSec - 1.0),
                   Table::num(run.totals.sumPrefix("op."), 0),
                   Table::pct(instrError(run, *r[0])),
                   Table::num(run.totals.get("mem.l2.misses"), 0),
                   Table::pct(timeShare(run, "Conv"))});
        }
        t.print(os);
    };
    f.predicates = {
        {0, "largest |instruction error| of a sampled policy",
         [](R r) {
             double worst = 0.0;
             for (const rt::NetRun *run : r)
                 worst = std::max(worst, std::abs(instrError(*run, *r[0])));
             return worst;
         },
         Op::AtMost, 0.001, Unit::Share},
    };
    return f;
}

} // namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> all = {
        tab01(), tab02(), tab03(), fig01(), fig02(), fig03(),
        fig04(), fig05(), fig06(), fig07(), fig08(), fig09(),
        fig10(), fig11(), fig12(), fig13(), fig14(), fig15(),
        fig16(), extMobilenet(), extQuantization(), ablSampling()};
    return all;
}

std::vector<Outcome>
evaluate(const Figure &fig, R runs)
{
    std::vector<Outcome> out;
    for (const Predicate &p : fig.predicates) {
        const double v = p.measure(runs);
        out.push_back({&p, v, p.holds(v)});
    }
    return out;
}

int
printChecks(std::ostream &os, const std::string &id,
            const std::vector<Outcome> &outcomes)
{
    if (outcomes.empty())
        return 0;
    auto fmt = [](double v, Unit unit) {
        return unit == Unit::Share ? Table::pct(v, 2)
               : unit == Unit::KB  ? Table::num(v, 1) + " KB"
                                   : Table::num(v, 3) + "x";
    };
    static const char *const ops[] = {">", ">=", "<", "<="};   // Op order
    Table t(id + " checks: paper target vs measured");
    t.header({"obs", "check", "target", "measured", "result"});
    int unexpected = 0;
    for (const Outcome &o : outcomes) {
        const Predicate &p = *o.predicate;
        unexpected += !o.expected();
        t.row({p.observation ? std::to_string(p.observation) : "-", p.what,
               std::string(ops[int(p.op)]) + " " + fmt(p.bound, p.unit),
               fmt(o.value, p.unit),
               o.expected() ? (o.holds ? "ok" : "deviation")
               : o.holds    ? "FAIL: deviation holds"
                            : "FAIL"});
    }
    t.print(os);
    for (const Outcome &o : outcomes) {
        if (!o.predicate->deviation.empty())
            os << "deviation, " << o.predicate->what << ": "
               << o.predicate->deviation << "\n";
    }
    return unexpected;
}

} // namespace tango::bench
