/**
 * @file
 * The figure registry: every table and figure of the paper, plus the
 * extensions and the sampling ablation, declared once.
 *
 * An entry names the simulation jobs it needs (a grid of rt::JobSpec
 * points and/or custom rt::Engine jobs), prints the figure's tables from
 * their results, and carries its predicates: inequalities in the paper's
 * direction ("conv share > 90%", "TX1 energy > PynQ energy") that tie
 * each of the paper's twelve Observations, and the figure headlines, to
 * a measured value.  A known deviation of this reproduction is a
 * predicate pinned to fail, with its cause; one that starts to hold is
 * reported as a failure too, so the list cannot go stale.  tango-fig
 * (tango_fig.cc) drives the registry.
 */

#ifndef TANGO_BENCH_FIGURES_HH
#define TANGO_BENCH_FIGURES_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/engine.hh"

namespace tango::bench {

/** A figure's results: its grid's runs, then its custom jobs' runs, in
 *  the order the entry declares them. */
using Runs = std::vector<const rt::NetRun *>;

/** A job that is not a plain JobSpec (quantized weights, sampling
 *  variants), submitted through rt::Engine::submit under @p key. */
struct CustomJob
{
    std::string key;
    sim::GpuConfig cfg;
    rt::Engine::JobFn fn;
};

/** How a predicate's value and bound print: "12.34%", "1.234x", "5.0 KB". */
enum class Unit { Share, Times, KB };

/** One inequality: measure(runs) op bound. */
struct Predicate
{
    enum class Op { Above, AtLeast, Below, AtMost };   ///< > >= < <=

    int observation;   ///< the paper's Observation 1-12; 0 = a headline
    std::string what;
    std::function<double(const Runs &)> measure;
    Op op;
    double bound;
    Unit unit;
    /** Non-empty: a known deviation, expected to fail; the measured
     *  value, a colon, and its cause. */
    std::string deviation = "";

    bool holds(double v) const
    {
        return op == Op::Above     ? v > bound
               : op == Op::AtLeast ? v >= bound
               : op == Op::Below   ? v < bound
                                   : v <= bound;
    }
};

/** One registry entry. */
struct Figure
{
    std::string id;   ///< tab01..tab03, fig01..fig16, ext_*, abl_*
    std::vector<rt::JobSpec> grid = {};
    std::vector<CustomJob> custom = {};
    std::function<void(std::ostream &, const Runs &)> print = nullptr;
    std::vector<Predicate> predicates = {};
};

/** Every entry, in the paper's order. */
const std::vector<Figure> &figures();

/** A predicate evaluated on a figure's runs. */
struct Outcome
{
    const Predicate *predicate;
    double value;
    bool holds;

    /** The predicate holds, or it is a known deviation and fails. */
    bool expected() const { return holds == predicate->deviation.empty(); }
};

/** Evaluate every predicate of @p fig on @p runs. */
std::vector<Outcome> evaluate(const Figure &fig, const Runs &runs);

/** Print the target-vs-measured table of @p outcomes, then the cause of
 *  each known deviation.  @return the number of unexpected outcomes. */
int printChecks(std::ostream &os, const std::string &id,
                const std::vector<Outcome> &outcomes);

} // namespace tango::bench

#endif // TANGO_BENCH_FIGURES_HH
