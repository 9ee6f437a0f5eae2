/**
 * @file
 * Figure-registry tests: the registry that tango-fig drives is well
 * formed (unique ids, every Observation owned, every deviation
 * explained), and its predicates judge hand-built NetRuns the way the
 * paper's inequalities read — including a pinned deviation that starts
 * to hold, which must count as a failure.  No simulation runs here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "figures.hh"
#include "nn/models/models.hh"

namespace tango {
namespace {

using bench::Figure;
using bench::Outcome;
using bench::Predicate;
using bench::Runs;

const Figure &
figure(const std::string &id)
{
    for (const Figure &f : bench::figures()) {
        if (f.id == id)
            return f;
    }
    throw std::invalid_argument("no figure " + id);
}

/** The outcome of the predicate of @p fig whose text is @p what. */
Outcome
outcomeOf(const Figure &fig, const Runs &runs, const std::string &what)
{
    for (const Outcome &o : bench::evaluate(fig, runs)) {
        if (o.predicate->what == what)
            return o;
    }
    ADD_FAILURE() << fig.id << " has no predicate '" << what << "'";
    return {nullptr, 0.0, false};
}

TEST(Figures, IdsAreUniqueAndEveryEntryPrints)
{
    std::set<std::string> ids;
    for (const Figure &f : bench::figures()) {
        EXPECT_TRUE(ids.insert(f.id).second) << "duplicate id " << f.id;
        EXPECT_TRUE(f.print) << f.id;
    }
    EXPECT_EQ(ids.size(), 22u);
    // The predicates index per-network runs in this order.
    EXPECT_EQ(nn::models::allNames(),
              (std::vector<std::string>{"gru", "lstm", "cifarnet", "alexnet",
                                        "squeezenet", "resnet", "vggnet"}));
}

TEST(Figures, EveryObservationIsOwnedByAPredicate)
{
    std::set<int> owned;
    for (const Figure &f : bench::figures()) {
        for (const Predicate &p : f.predicates) {
            EXPECT_GE(p.observation, 0) << f.id << ": " << p.what;
            EXPECT_LE(p.observation, 12) << f.id << ": " << p.what;
            EXPECT_TRUE(p.measure) << f.id << ": " << p.what;
            owned.insert(p.observation);
        }
    }
    for (int obs = 1; obs <= 12; obs++)
        EXPECT_TRUE(owned.count(obs)) << "Observation " << obs;
}

TEST(Figures, EveryDeviationCarriesAReason)
{
    size_t deviations = 0;
    for (const Figure &f : bench::figures()) {
        for (const Predicate &p : f.predicates) {
            if (p.deviation.empty())
                continue;
            deviations++;
            // "<measured value>: <cause>", a sentence, not a tag.
            EXPECT_NE(p.deviation.find(':'), std::string::npos) << p.what;
            EXPECT_GT(p.deviation.size(), 40u) << p.what;
        }
    }
    EXPECT_GT(deviations, 0u);
}

/** A Fig 11 result set: one run per network, 200 KB per RNN, 4 MB per
 *  CNN and 675 KB for CifarNet (its pinned deviation). */
struct Footprints
{
    std::vector<rt::NetRun> runs;

    Footprints()
    {
        for (const auto &net : nn::models::allNames()) {
            rt::NetRun r;
            r.netName = net;
            const bool rnn = net == "gru" || net == "lstm";
            r.deviceBytes =
                (rnn ? 200 : net == "cifarnet" ? 675 : 4096) * uint64_t(1024);
            runs.push_back(r);
        }
    }

    rt::NetRun &operator[](const std::string &net)
    {
        const auto names = nn::models::allNames();
        return runs[std::find(names.begin(), names.end(), net) -
                    names.begin()];
    }

    Runs view() const
    {
        Runs out;
        for (const auto &r : runs)
            out.push_back(&r);
        return out;
    }
};

TEST(Figures, PredicateFollowsItsInequality)
{
    const Figure &fig11 = figure("fig11");
    Footprints fp;
    Outcome o = outcomeOf(fig11, fp.view(), "gru device memory");
    ASSERT_NE(o.predicate, nullptr);
    EXPECT_DOUBLE_EQ(o.value, 200.0);
    EXPECT_TRUE(o.holds);
    EXPECT_TRUE(o.expected());

    // 600 KB breaks "RNNs < 500 KB".
    fp["gru"].deviceBytes = 600 * 1024;
    o = outcomeOf(fig11, fp.view(), "gru device memory");
    EXPECT_FALSE(o.holds);
    EXPECT_FALSE(o.expected());

    std::ostringstream os;
    EXPECT_EQ(bench::printChecks(os, fig11.id, bench::evaluate(fig11,
                                                               fp.view())),
              1);
    EXPECT_NE(os.str().find("FAIL"), std::string::npos) << os.str();
}

TEST(Figures, DeviationThatHoldsIsAFailure)
{
    const Figure &fig11 = figure("fig11");
    Footprints fp;
    // CifarNet's footprint is a pinned deviation: below 1 MB it fails
    // as expected...
    Outcome o = outcomeOf(fig11, fp.view(), "cifarnet device memory");
    ASSERT_NE(o.predicate, nullptr);
    ASSERT_FALSE(o.predicate->deviation.empty());
    EXPECT_FALSE(o.holds);
    EXPECT_TRUE(o.expected());
    std::ostringstream quiet;
    EXPECT_EQ(bench::printChecks(quiet, fig11.id,
                                 bench::evaluate(fig11, fp.view())),
              0);

    // ...and once it holds, the run fails until the pin is removed.
    fp["cifarnet"].deviceBytes = 2048 * 1024;
    o = outcomeOf(fig11, fp.view(), "cifarnet device memory");
    EXPECT_TRUE(o.holds);
    EXPECT_FALSE(o.expected());
    std::ostringstream os;
    EXPECT_EQ(bench::printChecks(os, fig11.id,
                                 bench::evaluate(fig11, fp.view())),
              1);
    EXPECT_NE(os.str().find("FAIL: deviation holds"), std::string::npos)
        << os.str();
}

} // namespace
} // namespace tango
