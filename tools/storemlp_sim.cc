/**
 * @file
 * storemlp_sim: command-line front end for the epoch-MLP simulator.
 * Runs one (workload, configuration) point and prints a full report,
 * a versioned JSON run artifact, or CSV.
 *
 *   storemlp_sim --workload database --prefetch sp2 --model wc \
 *                --sle --scout hws2 --sq 64 --measure 2000000 \
 *                --format=json --out run.json --epoch-log run.jsonl
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>

#include "cli_util.hh"
#include "core/config_io.hh"
#include "core/multi_core.hh"
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
        {"prefetch", enumNameList<StorePrefetch>(),
         "store prefetch policy (default sp1)"},
        kModelFlag,
        {"sle", "", "enable speculative lock elision"},
        {"pps", "", "prefetch past serializing instructions"},
        {"scout", enumNameList<ScoutMode>(),
         "hardware scout mode (default off)"},
        {"sq", "N", "store queue entries"},
        {"sb", "N", "store buffer entries"},
        {"rob", "N", "reorder buffer entries"},
        {"iw", "N", "issue window entries"},
        {"coalesce", "N", "coalescing granularity bytes (0 = off)"},
        {"perfect-stores", "", "stores never stall (bound)"},
        {"smac-entries", "N", "enable a SMAC with N entries"},
        {"l1-kb", "N", "L1 size override (KB)"},
        {"l2-kb", "N", "L2 size override (KB)"},
        {"l2-assoc", "N", "L2 associativity override"},
        {"chips", "N", "chips in the multiprocessor (default 1)"},
        {"peers", "", "drive remote chips with peer traffic"},
        {"sibling", "", "second core sharing the measured L2"},
        {"cores", "N",
         "simulate N full cores spread across --chips chips\n"
         "(contention mode: every core is simulated, no peer\n"
         "agents; incompatible with --trace/--peers/--sibling)"},
        {"quantum", "N",
         "instructions per core per interleaving turn in\n"
         "--cores mode (default 256)"},
        {"shared-frac", "F",
         "fraction of cold stores to the globally shared\n"
         "region in --cores mode (default per workload)"},
        {"lock-prob", "F",
         "critical-section probability per slot in --cores\n"
         "mode (default per workload)"},
        {"moesi", "", "MOESI coherence (default MESI)"},
        {"latency", "N", "off-chip miss penalty (default 500)"},
        kWarmupFlag, kMeasureFlag, kSeedFlag,
        {"config", "PATH",
         "load SimConfig from key=value file\n"
         "(flags override file values)"},
        {"profile", "PATH", "load a custom WorkloadProfile file"},
        {"epoch-log", "PATH",
         "write a JSON-lines per-epoch trace to PATH"},
        {"trace", "PATH",
         "simulate an on-disk trace file (decoded one chunk\n"
         "ahead; the file must already reflect --model)"},
        {"stream", "",
         "accepted for compatibility; every run streams its\n"
         "trace in chunks (O(chunk) trace memory)"},
        {"chunk-insts", "N",
         "records per chunk (default 65536; a v4 --trace\n"
         "file keeps its own); results are identical for\n"
         "every chunk size"},
        kFormatFlag, kOutFlag,
    });

    RunSpec spec;
    if (cli.has("profile")) {
        try {
            spec.profile =
                loadWorkloadProfileFile(cli.str("profile", ""));
        } catch (const ConfigError &e) {
            cli.fail(e.what());
        }
    } else {
        spec.profile =
            workloadByName(cli, cli.str("workload", "database"));
    }

    SimConfig &cfg = spec.config;
    if (cli.has("config")) {
        try {
            cfg = loadSimConfigFile(cli.str("config", ""));
        } catch (const ConfigError &e) {
            cli.fail(e.what());
        }
    }
    // Flags override the config file only when explicitly given.
    constexpr std::pair<const char *, const char *> kConfigFlags[] = {
        {"prefetch", "storePrefetch"}, {"model", "model"},
        {"scout", "scout"}, {"sq", "storeQueueSize"},
        {"sb", "storeBufferSize"}, {"rob", "robSize"},
        {"iw", "issueWindowSize"}, {"coalesce", "coalesceBytes"},
        {"latency", "missLatency"},
    };
    for (auto [flag, key] : kConfigFlags)
        configFlag(cli, cfg, flag, key);
    if (cli.flag("sle"))
        cfg.sle = true;
    if (cli.flag("pps"))
        cfg.prefetchPastSerializing = true;
    if (cli.flag("perfect-stores"))
        cfg.perfectStores = true;

    // A geometry the caches cannot index, or a value that would wrap
    // when narrowed to u32 or scaled from KB, is a usage error naming
    // the flags that set it, never a constructor assert or a silently
    // different cache.
    auto flag_check = [&](const std::string &flags, auto &&check) {
        try {
            check();
        } catch (const ConfigError &e) {
            cli.fail(flags + ": " + e.what());
        }
    };
    auto check_geometry = [&](const std::string &flags, const auto &config) {
        flag_check(flags, [&] { checkGeometry(config); });
    };
    auto u32_flag = [&](const char *flag, uint32_t def) {
        uint64_t v = cli.num(flag, def);
        flag_check(std::string("--") + flag, [&] {
            if (v > UINT32_MAX) {
                throw ConfigError(std::to_string(v) +
                                  " exceeds the maximum " +
                                  std::to_string(UINT32_MAX));
            }
        });
        return static_cast<uint32_t>(v);
    };
    if (cli.has("l1-kb") || cli.has("l2-kb") || cli.has("l2-assoc")) {
        HierarchyConfig hier;
        if (cli.has("l1-kb")) {
            uint64_t kb = u32_flag("l1-kb", 32);
            hier.l1i.sizeBytes = kb * 1024;
            hier.l1d.sizeBytes = kb * 1024;
            check_geometry("--l1-kb", hier.l1d);
        }
        if (cli.has("l2-kb"))
            hier.l2.sizeBytes = uint64_t{u32_flag("l2-kb", 2048)} * 1024;
        if (cli.has("l2-assoc"))
            hier.l2.assoc = u32_flag("l2-assoc", 4);
        if (cli.has("l2-kb") || cli.has("l2-assoc")) {
            check_geometry(!cli.has("l2-assoc") ? "--l2-kb"
                           : cli.has("l2-kb")   ? "--l2-kb/--l2-assoc"
                                                : "--l2-assoc",
                           hier.l2);
        }
        spec.hierarchy = hier;
    }

    if (cli.has("smac-entries")) {
        SmacConfig smac;
        smac.entries = u32_flag("smac-entries", 8192);
        check_geometry("--smac-entries", smac);
        spec.smac = smac;
    }
    spec.numChips = static_cast<uint32_t>(cli.num("chips", 1));
    if (cli.flag("moesi"))
        spec.protocol = CoherenceProtocol::Moesi;
    spec.peerTraffic = cli.flag("peers");
    spec.siblingCore = cli.flag("sibling");
    applyRunLengths(cli, spec.warmupInsts, spec.measureInsts,
                    spec.seed);

    if (cli.has("cores")) {
        // Contention mode: N full epoch engines on the real snoop
        // bus. The statistical remote-traffic machinery (--peers,
        // --sibling) and on-disk traces don't apply here.
        for (const char *bad : {"peers", "sibling", "trace",
                                "epoch-log"}) {
            if (cli.has(bad)) {
                cli.fail(std::string("--") + bad +
                         " cannot be combined with --cores");
            }
        }
        MultiRunSpec mspec;
        mspec.profile = spec.profile;
        mspec.config = spec.config;
        mspec.seed = spec.seed;
        mspec.warmupInsts = spec.warmupInsts;
        mspec.measureInsts = spec.measureInsts;
        mspec.cores = static_cast<uint32_t>(cli.num("cores", 2));
        if (mspec.cores == 0) cli.fail("--cores must be >= 1");
        mspec.chips = spec.numChips;
        mspec.quantum = quantumArg(cli);
        mspec.smac = spec.smac;
        mspec.protocol = spec.protocol;
        mspec.hierarchy = spec.hierarchy;
        mspec.chunkInsts = chunkInstsArg(cli);
        if (cli.has("shared-frac"))
            mspec.sharedStoreFrac = cli.fnum("shared-frac", 0.0);
        if (cli.has("lock-prob"))
            mspec.lockProb = cli.fnum("lock-prob", 0.0);

        MultiRunOutput mout = MultiCoreRunner::run(mspec);

        OutFormat fmt = outFormat(cli);
        OutputSink sink(cli);
        std::ostream &os = sink.stream();
        if (fmt != OutFormat::Text) {
            StatsMeta meta = {
                {"tool", "storemlp_sim"},
                {"mode", "multicore"},
                {"workload", spec.profile.name},
                {"model", cfg.memoryModel.name},
                {"cores", std::to_string(mspec.cores)},
                {"chips", std::to_string(mspec.chips)},
                {"seed", std::to_string(spec.seed)},
                {"warmup", std::to_string(spec.warmupInsts)},
                {"measure", std::to_string(spec.measureInsts)},
            };
            StatsRegistry reg;
            mout.exportStats(reg);
            if (fmt == OutFormat::Json)
                writeStatsJson(os, reg, meta, /*pretty=*/true);
            else
                writeStatsCsv(os, reg, meta);
            return 0;
        }
        os << "workload " << spec.profile.name << ", model "
           << cfg.memoryModel.name << ", " << mspec.cores
           << " cores on " << mspec.chips << " chip"
           << (mspec.chips > 1 ? "s" : "") << "\n\n";
        for (size_t i = 0; i < mout.cores.size(); ++i) {
            const SimResult &r = mout.cores[i];
            os << "cpu" << i << ": " << r.instructions
               << " insts, epochs/1000 " << r.epochsPer1000()
               << ", off-chip CPI ("
               << cfg.missLatency
               << "cy) " << r.offChipCpi(cfg.missLatency) << "\n";
        }
        os << "\ncombined epochs/1000: "
           << mout.combinedEpochsPer1000()
           << "\nmean off-chip CPI: "
           << mout.meanOffChipCpi(cfg.missLatency) << "\n";
        if (mspec.chips > 1) {
            os << "bus invalidations: " << mout.busInvalidations
               << " (" << mout.busInvalidationsPer1000()
               << "/1000 insts), dirty transfers: "
               << mout.busDirtyTransfers << "\n";
        }
        return 0;
    }

    std::ofstream epoch_ofs;
    if (cli.has("epoch-log")) {
        std::string path = cli.str("epoch-log", "");
        epoch_ofs.open(path);
        if (!epoch_ofs)
            cli.fail("cannot open --epoch-log file '" + path + "'");
        spec.epochLog = &epoch_ofs;
    }

    // Streamed in O(chunk) memory; openRunSource decodes or generates
    // one chunk ahead on a helper thread while the engine simulates.
    SourceSpec src_spec =
        SourceSpec::forRun(spec, chunkInstsArg(cli));
    src_spec.tracePath = cli.str("trace", "");
    if (cli.has("trace") && src_spec.tracePath.empty())
        cli.fail("--trace needs a file path");
    std::unique_ptr<TraceSource> src = openRunSource(src_spec);
    RunOutput out = Runner::run(spec, *src);

    OutFormat fmt = outFormat(cli);
    OutputSink sink(cli);
    std::ostream &os = sink.stream();

    if (fmt != OutFormat::Text) {
        StatsMeta meta = {
            {"tool", "storemlp_sim"},
            {"workload", spec.profile.name},
            {"model", cfg.memoryModel.name},
            {"prefetch", storePrefetchName(cfg.storePrefetch)},
            {"scout", scoutModeName(cfg.scout)},
            {"seed", std::to_string(spec.seed)},
            {"warmup", std::to_string(spec.warmupInsts)},
            {"measure", std::to_string(spec.measureInsts)},
        };
        StatsRegistry reg;
        out.exportStats(reg);
        if (fmt == OutFormat::Json)
            writeStatsJson(os, reg, meta, /*pretty=*/true);
        else
            writeStatsCsv(os, reg, meta);
        return 0;
    }

    os << "workload " << spec.profile.name << ", model "
       << cfg.memoryModel.name << ", "
       << storePrefetchName(cfg.storePrefetch) << ", scout "
       << scoutModeName(cfg.scout) << (cfg.sle ? ", SLE" : "")
       << "\n\n";
    out.sim.print(os);
    os << "off-chip CPI (" << cfg.missLatency
       << "cy): " << out.sim.offChipCpi(cfg.missLatency) << "\n";
    if (spec.smac) {
        os << "SMAC accelerated stores: "
           << out.sim.smacAcceleratedStores
           << ", coherence invalidates/1000: "
           << out.smacInvalidatesPer1000() << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
