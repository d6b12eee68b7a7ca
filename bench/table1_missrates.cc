/**
 * @file
 * Table 1: store frequency and L2 store/load/instruction miss rates
 * per 100 instructions for a 2MB 4-way set-associative (64B line) L2,
 * measured cache-only (no prefetching, no epoch engine), side by side
 * with the paper's published values.
 */

#include <iostream>

#include "bench_common.hh"

using namespace storemlp;
using namespace storemlp::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv, "table1_missrates");
    BenchScale scale = BenchScale::fromEnv();

    TextTable table("Table 1 — store and miss rate statistics "
                    "(per 100 instructions; paper value in braces)");
    table.header({"metric", "Database", "TPC-W", "SPECjbb", "SPECweb"});

    // Cache-only measurement, parallel across workloads on the sweep
    // pool; each task streams its trace in O(chunk) memory.
    auto profiles = workloads();
    std::vector<Runner::MissRates> rates(profiles.size());
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < profiles.size(); ++i) {
        tasks.push_back([&, i] {
            rates[i] = Runner::measureMissRates(
                profiles[i], 42, scale.warmup, scale.measure);
        });
    }
    sweepTasks(tasks);

    auto row = [&](const std::string &name, auto measured, auto target) {
        table.beginRow();
        table.cell(name);
        for (size_t i = 0; i < rates.size(); ++i) {
            table.cell(formatFixed(measured(rates[i]), 2) + " {" +
                       formatFixed(target(profiles[i]), 2) + "}");
        }
    };

    row("Store frequency",
        [](const Runner::MissRates &r) { return r.storesPer100; },
        [](const WorkloadProfile &p) { return p.targetStoresPer100; });
    row("L2 store miss rate",
        [](const Runner::MissRates &r) { return r.storeMissPer100; },
        [](const WorkloadProfile &p) { return p.targetStoreMissPer100; });
    row("L2 load miss rate",
        [](const Runner::MissRates &r) { return r.loadMissPer100; },
        [](const WorkloadProfile &p) { return p.targetLoadMissPer100; });
    row("L2 inst miss rate",
        [](const Runner::MissRates &r) { return r.instMissPer100; },
        [](const WorkloadProfile &p) { return p.targetInstMissPer100; });

    printTable(table);
    return 0;
}
