/**
 * @file
 * Table 3: CPIon-chip for the default processor configuration (L1
 * latency 4 cycles, L2 latency 15 cycles, perfect furthest on-chip
 * cache). Paper values: 1.11 / 1.12 / 0.95 / 1.38.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/cpi_model.hh"

using namespace storemlp;
using namespace storemlp::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv, "table3_cpi");
    BenchScale scale = BenchScale::fromEnv();

    TextTable table("Table 3 — CPIon-chip (perfect L2)");
    table.header({"component", "Database", "TPC-W", "SPECjbb",
                  "SPECweb"});

    // One CPI-model evaluation per workload, parallel on the sweep
    // pool. Each stream feeds one evaluation, so nothing is cached.
    auto profiles = workloads();
    std::vector<CpiModel::Breakdown> bds(profiles.size());
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < profiles.size(); ++i) {
        tasks.push_back([&, i] {
            SourceSpec spec;
            spec.profile = profiles[i];
            spec.seed = 42;
            spec.count = scale.warmup + scale.measure;
            bds[i] = CpiModel().evaluate(*openRunSource(spec),
                                         scale.warmup);
        });
    }
    sweepTasks(tasks);

    auto row = [&](const std::string &name, auto get) {
        table.beginRow();
        table.cell(name);
        for (const auto &bd : bds)
            table.cell(get(bd), 3);
    };
    row("base (issue)", [](const auto &b) { return b.base; });
    row("load-to-use", [](const auto &b) { return b.loadUse; });
    row("L1D miss (L2 hit)", [](const auto &b) { return b.l1dMiss; });
    row("L1I miss (L2 hit)", [](const auto &b) { return b.l1iMiss; });
    row("branch mispredict", [](const auto &b) { return b.branch; });
    row("TOTAL", [](const auto &b) { return b.total(); });

    table.beginRow();
    table.cell(std::string("paper"));
    for (const auto &profile : workloads())
        table.cell(profile.cpiOnChip, 2);

    printTable(table);
    return 0;
}
