/**
 * @file
 * Memory-model axis sweep: CPI vs model descriptor preset for every
 * workload, run as one sweep batch. With --format=json each table is
 * a versioned (schemaVersion) document, so the model axis can be
 * tracked across commits like any other run artifact.
 */

#include <iostream>

#include "bench_common.hh"

using namespace storemlp;
using namespace storemlp::bench;

int
main(int argc, char **argv)
{
    benchInit(argc, argv, "perf_models");
    BenchScale scale = BenchScale::fromEnv();
    const std::vector<ModelDescriptor> &models =
        ModelDescriptor::presets();

    // 4 workloads x 5 presets, one sweep submission. Trace groups
    // key on the dialect rewrite, so all Sparc-dialect runs of a
    // workload share one trace and all Power-dialect runs another.
    std::vector<RunSpec> specs;
    for (const auto &profile : workloads()) {
        for (const ModelDescriptor &m : models) {
            RunSpec spec;
            spec.profile = profile;
            spec.config = SimConfig::defaults();
            spec.config.name = m.name;
            spec.config.memoryModel = m;
            applyScale(spec, scale);
            specs.push_back(spec);
        }
    }
    std::vector<RunOutput> outs = sweepAll(specs);

    size_t idx = 0;
    for (const auto &profile : workloads()) {
        TextTable table("Model sweep — " + profile.name +
                        " (paper default machine per descriptor "
                        "preset)");
        table.header({"model", "epochs/1000", "MLP", "store MLP",
                      "off-chip CPI"});
        for (const ModelDescriptor &m : models) {
            const RunOutput &out = outs[idx++];
            table.beginRow();
            table.cell(m.name);
            table.cell(out.sim.epochsPer1000(), 3);
            table.cell(out.sim.mlp(), 3);
            table.cell(out.sim.storeMlp(), 3);
            table.cell(out.sim.offChipCpi(500), 3);
        }
        printTable(table);
    }
    return 0;
}
