/**
 * @file
 * storemlp_epochs: a Figure-1-style timeline view — stream the first
 * N counted epochs of a run, one line each, with cause and
 * composition. The fastest way to see *why* a configuration stalls.
 * --format=json emits the same epochs as JSON lines (the epoch-log
 * record shape) followed by a versioned run summary document.
 *
 *   storemlp_epochs --workload specweb --count 25
 */

#include <iomanip>
#include <iostream>

#include "cli_util.hh"
#include "coherence/chip.hh"
#include "core/epoch_log.hh"
#include "core/mlp_sim.hh"
#include "core/runner.hh"
#include "stats/stats_json.hh"

using namespace storemlp;
using namespace storemlp::tools;

namespace
{

int
toolMain(int argc, char **argv)
{
    Cli cli(argc, argv, {
        kWorkloadFlag,
        {"count", "N", "epochs to print (default 30)"},
        {"prefetch", enumNameList<StorePrefetch>(),
         "store prefetch policy (default sp1)"},
        kWarmupFlag, kSeedFlag,
        kFormatFlag, kOutFlag,
    });
    WorkloadProfile profile =
        workloadByName(cli, cli.str("workload", "database"));
    uint64_t count = cli.num("count", 30);
    uint64_t warmup = cli.num("warmup", 600 * 1000);

    SimConfig cfg;
    configFlag(cli, cfg, "prefetch", "storePrefetch");
    cfg.cpiOnChip = profile.cpiOnChip;

    SourceSpec spec;
    spec.profile = profile;
    spec.seed = cli.num("seed", 42);
    spec.count = warmup + 400 * 1000;
    std::unique_ptr<TraceSource> src = openRunSource(spec);

    // Neither SLE nor TM is on, so the simulator reads no lock
    // analysis.
    ChipNode chip(HierarchyConfig{}, 0);
    MlpSimulator sim(cfg, chip, nullptr);

    OutFormat fmt = outFormat(cli);
    OutputSink sink(cli);
    std::ostream &os = sink.stream();

    if (fmt == OutFormat::Text) {
        os << "epoch timeline — " << profile.name << ", "
           << storePrefetchName(cfg.storePrefetch)
           << " (after " << warmup << " warmup instructions)\n\n"
           << std::left << std::setw(6) << "#" << std::setw(12)
           << "trace idx" << std::setw(12) << "stall len"
           << std::setw(22) << "cause" << "misses "
           << "(ld/st/if)\n";
    } else if (fmt == OutFormat::Csv) {
        os << "epoch,trace_idx,stall_len,cause,miss_loads,"
              "miss_stores,miss_insts,sb_occupancy\n";
    }

    EpochLogWriter log(os);
    uint64_t printed = 0;
    double prev_resolve = 0.0;
    sim.setEpochListener([&](const EpochRecord &rec) {
        if (printed >= count)
            return;
        double gap = rec.startCycle - prev_resolve;
        prev_resolve = rec.resolveCycle;
        switch (fmt) {
          case OutFormat::Json:
            log.write(rec);
            break;
          case OutFormat::Csv:
            os << printed << "," << rec.triggerIdx << ","
               << static_cast<uint64_t>(rec.resolveCycle -
                                        rec.startCycle)
               << "," << termCondName(rec.cause) << "," << rec.loads
               << "," << rec.stores << "," << rec.insts << ","
               << rec.sbOccupancy << "\n";
            break;
          case OutFormat::Text:
            os << std::left << std::setw(6) << printed
               << std::setw(12) << rec.triggerIdx << std::setw(12)
               << static_cast<uint64_t>(rec.resolveCycle -
                                        rec.startCycle)
               << std::setw(22) << termCondName(rec.cause)
               << rec.loads << "/" << rec.stores << "/"
               << rec.insts;
            if (printed > 0)
                os << "   (+" << static_cast<uint64_t>(gap)
                   << "cy compute)";
            os << "\n";
            break;
        }
        ++printed;
    });

    SimResult res = sim.run(*src, warmup);

    if (fmt == OutFormat::Json) {
        StatsMeta meta = {
            {"tool", "storemlp_epochs"},
            {"kind", "run"},
            {"workload", profile.name},
            {"prefetch", storePrefetchName(cfg.storePrefetch)},
            {"warmup", std::to_string(warmup)},
        };
        StatsRegistry reg;
        res.exportStats(reg);
        writeStatsJson(os, reg, meta, /*pretty=*/false);
        return 0;
    }
    if (fmt == OutFormat::Csv)
        return 0;

    os << "\n" << res.epochs << " epochs in "
       << res.instructions << " instructions ("
       << res.epochsPer1000() << " per 1000), MLP "
       << res.mlp() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
