#include "estimate/model.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/json.hh"
#include "common/logging.hh"
#include "runtime/run_cache.hh"
#include "sim/digest.hh"

namespace tango::estimate {

namespace {

using json::ObjWriter;
using json::Reader;

/** Ridge strength.  Tiny: it only conditions the normal equations when a
 *  family has fewer distinct shapes than weights; it does not noticeably
 *  bias a well-populated fit. */
constexpr double kRidgeLambda = 1e-4;

const char *const kFamilyNames[kNumFamilies] = {
    "conv", "fc", "pool", "norm", "activation", "rnn-cell",
};

const char *const kTargetNames[kNumTargets] = {
    "cycles", "stalls", "l1dMisses", "l2Misses", "dramAccesses", "energyJ",
};

} // namespace

// ---------------------------------------------------------------- families

const char *
familyName(Family f)
{
    return kFamilyNames[static_cast<int>(f)];
}

bool
familyFromName(const std::string &name, Family &out)
{
    for (int i = 0; i < kNumFamilies; i++) {
        if (name == kFamilyNames[i]) {
            out = static_cast<Family>(i);
            return true;
        }
    }
    return false;
}

bool
layerFamily(nn::LayerKind kind, Family &out)
{
    switch (kind) {
    case nn::LayerKind::Conv:
    case nn::LayerKind::Depthwise:
        out = Family::Conv;
        return true;
    case nn::LayerKind::FC:
        out = Family::Fc;
        return true;
    case nn::LayerKind::Pool:
        out = Family::Pool;
        return true;
    case nn::LayerKind::LRN:
    case nn::LayerKind::BatchNorm:
    case nn::LayerKind::Scale:
        out = Family::Norm;
        return true;
    case nn::LayerKind::ReLU:
    case nn::LayerKind::Eltwise:
    case nn::LayerKind::Softmax:
        out = Family::Activation;
        return true;
    case nn::LayerKind::Input:
    case nn::LayerKind::Concat:
        return false;   // no kernels, nothing to model
    }
    return false;
}

// ---------------------------------------------------------------- features

std::string
Features::key() const
{
    std::string out;
    char buf[32];
    for (int i = 0; i < kNumFeatures; i++) {
        std::snprintf(buf, sizeof buf, "%.17g", v[i]);
        if (i)
            out += ',';
        out += buf;
    }
    return out;
}

Features
layerFeatures(const nn::Layer &l)
{
    Features f;
    const auto &h = l.hint;
    const uint64_t gridCtas = uint64_t(std::max(1u, h.grid.x)) *
                              std::max(1u, h.grid.y) *
                              std::max(1u, h.grid.z);
    const uint64_t tileKernels = std::max<size_t>(1, h.tiles.size());
    const uint64_t filterKernels =
        h.filtersPerKernel
            ? (l.K + h.filtersPerKernel - 1) / h.filtersPerKernel
            : 1;
    const uint64_t threads = std::max<uint64_t>(
        1, uint64_t(std::max(1u, h.block.x)) * std::max(1u, h.block.y) *
               std::max(1u, h.block.z));

    const bool fcShaped = l.kind == nn::LayerKind::FC ||
                          (l.C == 0 && l.inN != 0);
    f.v[0] = double(l.macs());
    f.v[1] = double(l.outputSize());
    f.v[2] = fcShaped ? double(l.inN)
                      : double(uint64_t(l.C) * l.H * l.W);
    f.v[3] = double(l.paramCount());
    f.v[4] = double(gridCtas * tileKernels * filterKernels);
    f.v[5] = double(threads);
    f.v[6] = double(std::max<uint64_t>(1, uint64_t(l.R) * l.S));
    f.v[7] = double(fcShaped ? l.inN : l.C);
    return f;
}

Features
rnnCellFeatures(const nn::RnnModel &m)
{
    // Mirrors lowerRnn(): GRU launches a fixed 10x10 block, LSTM one
    // thread per hidden unit; both one CTA per step.
    const uint64_t gates = m.lstm ? 4 : 3;
    const uint64_t in = uint64_t(m.inputSize) + m.hidden;
    Features f;
    f.v[0] = double(gates * m.hidden * in);
    f.v[1] = double(m.hidden) * (m.lstm ? 2.0 : 1.0);   // h (and c)
    f.v[2] = double(in);
    f.v[3] = double(gates * m.hidden * (in + 1));
    f.v[4] = 1.0;
    f.v[5] = m.lstm ? double(m.hidden) : 100.0;
    f.v[6] = 1.0;
    f.v[7] = double(m.hidden);
    return f;
}

Features
rnnReadoutFeatures(const nn::RnnModel &m)
{
    // The dense readout (hidden -> 1) launches one hidden-wide CTA.
    Features f;
    f.v[0] = double(m.hidden);
    f.v[1] = 1.0;
    f.v[2] = double(m.hidden);
    f.v[3] = double(m.hidden) + 1.0;
    f.v[4] = 1.0;
    f.v[5] = double(m.hidden);
    f.v[6] = 1.0;
    f.v[7] = double(m.hidden);
    return f;
}

// ----------------------------------------------------------------- targets

const char *
targetName(Target t)
{
    return kTargetNames[static_cast<int>(t)];
}

// ------------------------------------------------------------------ models

bool
FamilyModel::lookup(const Features &f, double out[kNumTargets]) const
{
    TANGO_ASSERT(fitted, "lookup() on an unfitted family model");
    const std::string key = f.key();
    const auto it = std::lower_bound(
        table.begin(), table.end(), key,
        [](const TableEntry &e, const std::string &k) { return e.key < k; });
    if (it == table.end() || it->key != key)
        return false;
    for (int ti = 0; ti < kNumTargets; ti++)
        out[ti] = std::max(0.0, std::expm1(it->logTarget[ti]));
    return true;
}

double
FamilyModel::predict(Target t, const Features &f) const
{
    TANGO_ASSERT(fitted, "predict() on an unfitted family model");
    const TargetModel &m = targets[static_cast<int>(t)];
    double y = m.w[0];
    for (int i = 0; i < kNumFeatures; i++)
        y += m.w[i + 1] * std::log1p(f.v[i]);
    return std::max(0.0, std::expm1(y));
}

std::string
Bundle::toJson() const
{
    std::string out;
    ObjWriter o(out);
    o.u64("version", kBundleVersion);
    o.u64("statsVersion", rt::kSimStatsVersion);
    o.str("policy", policy);
    o.str("platform", platform);
    o.key("families");
    {
        ObjWriter fams(out);
        for (int fi = 0; fi < kNumFamilies; fi++) {
            const FamilyModel &fm = families[fi];
            if (!fm.fitted)
                continue;
            fams.key(kFamilyNames[fi]);
            ObjWriter fo(out);
            fo.u64("trainRows", fm.trainRows);
            fo.u64("holdoutRows", fm.holdoutRows);
            fo.num("tableP50", fm.tableP50);
            fo.num("tableP95", fm.tableP95);
            fo.key("table");
            out += '[';
            for (size_t ei = 0; ei < fm.table.size(); ei++) {
                const TableEntry &e = fm.table[ei];
                if (ei)
                    out += ',';
                out += '[';
                for (int i = 0; i < kNumFeatures; i++) {
                    if (i)
                        out += ',';
                    json::appendDouble(out, e.feat.v[i]);
                }
                for (int ti = 0; ti < kNumTargets; ti++) {
                    out += ',';
                    json::appendDouble(out, e.logTarget[ti]);
                }
                out += ',';
                json::appendU64(out, e.rows);
                out += ']';
            }
            out += ']';
            fo.key("targets");
            {
                ObjWriter tgts(out);
                for (int ti = 0; ti < kNumTargets; ti++) {
                    const TargetModel &tm = fm.targets[ti];
                    tgts.key(kTargetNames[ti]);
                    ObjWriter to(out);
                    to.key("w");
                    out += '[';
                    for (int wi = 0; wi <= kNumFeatures; wi++) {
                        if (wi)
                            out += ',';
                        json::appendDouble(out, tm.w[wi]);
                    }
                    out += ']';
                    to.num("p50", tm.p50);
                    to.num("p95", tm.p95);
                    to.close();
                }
                tgts.close();
            }
            fo.close();
        }
        fams.close();
    }
    o.close();
    return out;
}

bool
Bundle::fromJson(const std::string &text, Bundle &out, std::string *err)
{
    const auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    Reader::Value v;
    try {
        v = Reader(text).parse();
    } catch (const std::exception &e) {
        return fail(e.what());
    }
    if (v.kind != Reader::Value::Kind::Obj)
        return fail("bundle must be a JSON object");

    const int version = static_cast<int>(v.u64Or("version", 0));
    if (version != kBundleVersion)
        return fail("bundle version " + std::to_string(version) +
                    " != expected " + std::to_string(kBundleVersion));
    const int stats = static_cast<int>(v.u64Or("statsVersion", 0));
    if (stats != rt::kSimStatsVersion)
        return fail("bundle stats version " + std::to_string(stats) +
                    " != simulator " +
                    std::to_string(rt::kSimStatsVersion) +
                    " (refit with tango-fit)");

    Bundle b;
    b.policy = v.strOr("policy");
    b.platform = v.strOr("platform");
    const Reader::Value *fams = v.find("families");
    if (!fams || fams->kind != Reader::Value::Kind::Obj)
        return fail("bundle is missing its 'families' object");
    for (const auto &[name, fv] : fams->obj) {
        Family fam;
        if (!familyFromName(name, fam))
            return fail("unknown family '" + name + "'");
        FamilyModel &fm = b.family(fam);
        fm.fitted = true;
        fm.trainRows = fv.u64Or("trainRows");
        fm.holdoutRows = fv.u64Or("holdoutRows");
        fm.tableP50 = fv.numOr("tableP50");
        fm.tableP95 = fv.numOr("tableP95");
        const Reader::Value *tbl = fv.find("table");
        if (!tbl || tbl->kind != Reader::Value::Kind::Arr)
            return fail("family '" + name + "' has no shape table");
        for (const Reader::Value &ev : tbl->arr) {
            if (ev.kind != Reader::Value::Kind::Arr ||
                ev.arr.size() != size_t(kNumFeatures) + kNumTargets + 1)
                return fail("family '" + name + "': bad table entry");
            TableEntry e;
            for (int i = 0; i < kNumFeatures; i++)
                e.feat.v[i] = ev.arr[i].num;
            for (int ti = 0; ti < kNumTargets; ti++)
                e.logTarget[ti] = ev.arr[kNumFeatures + ti].num;
            e.rows = static_cast<uint32_t>(
                ev.arr[kNumFeatures + kNumTargets].num);
            e.key = e.feat.key();
            fm.table.push_back(std::move(e));
        }
        std::sort(fm.table.begin(), fm.table.end(),
                  [](const TableEntry &a, const TableEntry &b2) {
                      return a.key < b2.key;
                  });
        const Reader::Value *tgts = fv.find("targets");
        if (!tgts || tgts->kind != Reader::Value::Kind::Obj)
            return fail("family '" + name + "' has no targets");
        for (int ti = 0; ti < kNumTargets; ti++) {
            const Reader::Value *tv = tgts->find(kTargetNames[ti]);
            if (!tv)
                return fail("family '" + name + "' is missing target '" +
                            std::string(kTargetNames[ti]) + "'");
            TargetModel &tm = fm.targets[ti];
            const Reader::Value *w = tv->find("w");
            if (!w || w->kind != Reader::Value::Kind::Arr ||
                w->arr.size() != size_t(kNumFeatures) + 1) {
                return fail("family '" + name + "' target '" +
                            std::string(kTargetNames[ti]) +
                            "': bad weight vector");
            }
            for (size_t wi = 0; wi < w->arr.size(); wi++)
                tm.w[wi] = w->arr[wi].num;
            tm.p50 = tv->numOr("p50");
            tm.p95 = tv->numOr("p95");
        }
    }
    out = std::move(b);
    return true;
}

std::string
Bundle::fileName(const std::string &policy, const std::string &platform)
{
    return policy + "_" + platform + ".json";
}

// ----------------------------------------------------------------- fitting

namespace {

/** Solve (A)x = b for a small dense symmetric system by Gaussian
 *  elimination with partial pivoting.  N = kNumFeatures + 1. */
constexpr int kN = kNumFeatures + 1;

void
solveNormal(double a[kN][kN], double b[kN], double out[kN])
{
    int perm[kN];
    for (int i = 0; i < kN; i++)
        perm[i] = i;
    for (int col = 0; col < kN; col++) {
        int best = col;
        for (int r = col + 1; r < kN; r++) {
            if (std::fabs(a[r][col]) > std::fabs(a[best][col]))
                best = r;
        }
        if (best != col) {
            for (int c = 0; c < kN; c++)
                std::swap(a[col][c], a[best][c]);
            std::swap(b[col], b[best]);
        }
        const double pivot = a[col][col];
        if (std::fabs(pivot) < 1e-12)
            continue;   // ridge keeps this from mattering in practice
        for (int r = col + 1; r < kN; r++) {
            const double m = a[r][col] / pivot;
            if (m == 0.0)
                continue;
            for (int c = col; c < kN; c++)
                a[r][c] -= m * a[col][c];
            b[r] -= m * b[col];
        }
    }
    for (int r = kN - 1; r >= 0; r--) {
        double sum = b[r];
        for (int c = r + 1; c < kN; c++)
            sum -= a[r][c] * out[c];
        out[r] = std::fabs(a[r][r]) < 1e-12 ? 0.0 : sum / a[r][r];
    }
}

void
phiOf(const Features &f, double phi[kN])
{
    phi[0] = 1.0;
    for (int i = 0; i < kNumFeatures; i++)
        phi[i + 1] = std::log1p(f.v[i]);
}

double
relErr(double pred, double truth)
{
    return std::fabs(pred - truth) / std::max(truth, 1.0);
}

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * double(sorted.size() - 1) + 0.5));
    return sorted[idx];
}

} // namespace

Bundle
fit(const std::vector<Row> &rows, const std::string &policy,
    const std::string &platform)
{
    Bundle b;
    b.policy = policy;
    b.platform = platform;

    for (int fi = 0; fi < kNumFamilies; fi++) {
        const Family fam = static_cast<Family>(fi);

        // Split by feature identity, not by row: the RNN sweep emits one
        // identical cell row per timestep, and letting copies of one
        // shape land on both sides of the split would make the holdout
        // error a lie.
        std::vector<const Row *> train, holdout;
        for (const Row &r : rows) {
            if (r.family != fam)
                continue;
            uint64_t h = sim::digest::kInit;
            const std::string key = r.feat.key();
            sim::digest::mixBytes(h, key.data(), key.size());
            ((h % 5) == 4 ? holdout : train).push_back(&r);
        }
        if (train.empty() && holdout.empty())
            continue;   // family absent from the sweep: stays unfitted
        if (train.empty())
            train.swap(holdout);

        FamilyModel &fm = b.family(fam);
        fm.fitted = true;
        fm.trainRows = train.size();
        fm.holdoutRows = holdout.size();
        // No holdout (tiny sweep): bounds degrade to train-set error,
        // honestly labelled by holdoutRows == 0.
        const std::vector<const Row *> &eval =
            holdout.empty() ? train : holdout;

        // The exact-shape table memorizes EVERY swept shape (the split
        // above only keeps the regressors' holdout honest; memorization
        // is the table's whole point).  A shape observed more than once
        // stores the log-space mean, and the spread of those duplicates
        // around it is the table's validated cycle-error bound.
        {
            std::map<std::string, std::vector<const Row *>> byKey;
            for (const Row &r : rows) {
                if (r.family == fam)
                    byKey[r.feat.key()].push_back(&r);
            }
            std::vector<double> spread;
            for (const auto &[key, group] : byKey) {
                TableEntry e;
                e.feat = group.front()->feat;
                e.key = key;
                e.rows = static_cast<uint32_t>(group.size());
                for (int ti = 0; ti < kNumTargets; ti++) {
                    double sum = 0.0;
                    for (const Row *r : group)
                        sum += std::log1p(std::max(0.0, r->target[ti]));
                    e.logTarget[ti] = sum / double(group.size());
                }
                if (group.size() > 1) {
                    const double mean = std::max(
                        0.0, std::expm1(e.logTarget[static_cast<int>(
                                 Target::Cycles)]));
                    for (const Row *r : group)
                        spread.push_back(relErr(
                            mean, r->target[static_cast<int>(
                                      Target::Cycles)]));
                }
                fm.table.push_back(std::move(e));
            }
            std::sort(spread.begin(), spread.end());
            fm.tableP50 = percentileSorted(spread, 0.50);
            fm.tableP95 = percentileSorted(spread, 0.95);
            // byKey iterates sorted, so the table is already ordered.
        }

        for (int ti = 0; ti < kNumTargets; ti++) {
            double a[kN][kN] = {};
            double bvec[kN] = {};
            for (const Row *r : train) {
                double phi[kN];
                phiOf(r->feat, phi);
                const double y = std::log1p(std::max(0.0, r->target[ti]));
                for (int i = 0; i < kN; i++) {
                    bvec[i] += phi[i] * y;
                    for (int j = 0; j < kN; j++)
                        a[i][j] += phi[i] * phi[j];
                }
            }
            for (int i = 1; i < kN; i++)
                a[i][i] += kRidgeLambda;   // intercept unpenalized

            TargetModel &tm = fm.targets[ti];
            solveNormal(a, bvec, tm.w);

            std::vector<double> errs;
            errs.reserve(eval.size());
            for (const Row *r : eval)
                errs.push_back(relErr(fm.predict(static_cast<Target>(ti),
                                                 r->feat),
                                      r->target[ti]));
            std::sort(errs.begin(), errs.end());
            tm.p50 = percentileSorted(errs, 0.50);
            tm.p95 = percentileSorted(errs, 0.95);
        }
    }
    return b;
}

} // namespace tango::estimate
