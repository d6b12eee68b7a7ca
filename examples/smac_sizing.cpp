/**
 * @file
 * Domain example: sizing the Store Miss Accelerator for a two-chip
 * system. Sweeps SMAC capacity for a chosen workload, reporting EPI,
 * the fraction of missing stores accelerated, SRAM cost (8 bytes per
 * entry, Section 3.3.3) and the core-to-L2 bandwidth comparison
 * against store prefetching — the design trade the paper proposes the
 * SMAC for.
 */

#include <iostream>

#include "core/runner.hh"
#include "stats/table.hh"

using namespace storemlp;

namespace
{
RunOutput
runOnce(const RunSpec &spec)
{
    return Runner::run(spec, *openRunSource(SourceSpec::forRun(spec)));
}
} // namespace

int
main(int argc, char **argv)
{
    uint64_t insts = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                              : 1200000;
    WorkloadProfile profile = WorkloadProfile::database();

    auto base_spec = [&]() {
        RunSpec spec;
        spec.profile = profile;
        spec.config = SimConfig::defaults();
        spec.config.storePrefetch = StorePrefetch::None;
        spec.numChips = 2;
        spec.peerTraffic = true;
        spec.siblingCore = true;
        spec.warmupInsts = 2 * insts;
        spec.measureInsts = insts;
        return spec;
    };

    TextTable table("SMAC sizing — " + profile.name +
                    " (two chips, two cores/chip, no store prefetch)");
    table.header({"SMAC", "SRAM", "epochs/1000", "accelerated stores",
                  "L2 accesses/inst"});

    auto emit = [&](const std::string &name, uint64_t sram_bytes,
                    const RunOutput &out) {
        table.beginRow();
        table.cell(name);
        table.cell(sram_bytes ? std::to_string(sram_bytes / 1024) + "KB"
                              : std::string("-"));
        table.cell(out.sim.epochsPer1000(), 3);
        uint64_t denom = out.sim.missStores;
        table.cell(formatFixed(denom ? 100.0 *
                       static_cast<double>(
                           out.sim.smacAcceleratedStores) /
                       static_cast<double>(denom) : 0.0, 1) + "%");
        table.cell(static_cast<double>(out.l2Accesses) /
                       static_cast<double>(out.sim.instructions),
                   3);
    };

    emit("none", 0, runOnce(base_spec()));

    for (uint32_t entries_k : {8u, 16u, 32u, 64u, 128u}) {
        RunSpec spec = base_spec();
        SmacConfig smac;
        smac.entries = entries_k * 1024;
        spec.smac = smac;
        emit(std::to_string(entries_k) + "K entries",
             uint64_t(entries_k) * 1024 * 8, runOnce(spec));
    }

    // The bandwidth foil: prefetch-at-execute without a SMAC.
    RunSpec sp2 = base_spec();
    sp2.config.storePrefetch = StorePrefetch::AtExecute;
    emit("(Sp2 prefetch, no SMAC)", 0, runOnce(sp2));

    table.print(std::cout);

    std::cout << "The SMAC approaches prefetching's EPI while issuing\n"
                 "fewer core-to-L2 requests: ownership is retained in\n"
                 "the L2 subsystem instead of being re-fetched.\n";
    return 0;
}
