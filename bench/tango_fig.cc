/**
 * @file
 * tango-fig <id>|all: print one registry entry (figures.hh), or every
 * entry simulated by one engine pool, each followed by its paper target
 * vs measured table.  Exits 1 on any unexpected result: a failed
 * predicate, a known deviation that holds, a failed job or, for "all",
 * an Observation left unchecked.  TANGO_ENGINE_THREADS and
 * TANGO_ENGINE_CACHE configure the engine (rt::EngineOptions::fromEnv).
 */

#include <array>
#include <iostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "figures.hh"

using namespace tango;
using namespace tango::bench;

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::vector<const Figure *> selected;
    const std::string arg = argc == 2 ? argv[1] : "";
    for (const Figure &f : figures()) {
        if (arg == "all" || arg == f.id)
            selected.push_back(&f);
    }
    if (selected.empty()) {
        std::string ids;
        for (const Figure &f : figures())
            ids += " " + f.id;
        fatal("usage: tango-fig <id>|all\n  ids:%s", ids.c_str());
    }

    // Submit every job up front, so one pool simulates the selection.
    rt::Engine &engine = rt::Engine::global();
    std::vector<std::vector<std::shared_future<const rt::NetRun *>>> jobs;
    for (const Figure *f : selected) {
        auto &futures = jobs.emplace_back();
        for (const rt::JobSpec &spec : f->grid)
            futures.push_back(engine.submitJob(spec).future);
        for (const CustomJob &c : f->custom)
            futures.push_back(engine.submit(c.key, c.cfg, c.fn));
    }

    // Per Observation ([0] = figure headlines): checks, ok, deviations,
    // unexpected.
    std::array<std::array<int, 4>, 13> tally{};
    int unexpected = 0;
    for (size_t i = 0; i < selected.size(); i++) {
        if (i > 0)
            std::cout << "\n";
        Runs runs;
        try {
            for (const auto &future : jobs[i])
                runs.push_back(future.get());
        } catch (const std::exception &e) {
            std::cout << selected[i]->id << ": simulation failed: "
                      << e.what() << "\n";
            unexpected++;
            continue;
        }
        selected[i]->print(std::cout, runs);
        const std::vector<Outcome> outcomes = evaluate(*selected[i], runs);
        for (const Outcome &o : outcomes) {
            auto &t = tally[o.predicate->observation];
            t[0]++;
            t[o.expected() ? (o.holds ? 1 : 2) : 3]++;
        }
        unexpected += printChecks(std::cout, selected[i]->id, outcomes);
    }

    if (arg == "all") {
        Table t("Observations: checks evaluated by tango-fig all");
        t.header({"obs", "checks", "ok", "known deviations", "unexpected"});
        for (size_t obs = 1; obs <= 13; obs++) {
            auto &n = tally[obs % 13];   // the headlines last
            // An Observation nothing evaluated is unchecked, not passed.
            n[3] += obs < 13 && n[0] == 0;
            unexpected += obs < 13 && n[0] == 0;
            t.row({obs < 13 ? std::to_string(obs) : "-",
                   std::to_string(n[0]), std::to_string(n[1]),
                   std::to_string(n[2]), std::to_string(n[3])});
        }
        std::cout << "\n";
        t.print(std::cout);
    }
    std::cout << "tango-fig " << arg << ": "
              << (unexpected ? std::to_string(unexpected) + " unexpected"
                             : std::string("every check as expected"))
              << "\n";
    return unexpected ? 1 : 0;
}
