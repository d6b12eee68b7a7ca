/**
 * @file
 * storemlp_sweep: run a whole directory of SimConfig files (every
 * `.cfg` file in, e.g., `configs`) against one or all workloads in a
 * single parallel invocation of the sweep engine. Prints one table per workload
 * (config x headline metrics, with per-run wall-clock), CSV rows, or
 * — with --format=json — one versioned JSON document per run (JSON
 * lines) followed by an engine summary document.
 *
 * The batch is described by a `SweepRequest` built from the shared
 * flag table (sweep_cli.hh) — the same request `storemlp_sweepc`
 * submits to a daemon — and executed through
 * `SweepEngine::execute`, so local and remote runs of one request are
 * the same computation producing bit-identical per-run stats.
 *
 *   storemlp_sweep --dir configs --workload all --jobs 4
 *   storemlp_sweep --dir configs --workload tpcw --format=json
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "cli_util.hh"
#include "core/multi_core.hh"
#include "core/sweep.hh"
#include "stats/stats_json.hh"
#include "stats/table.hh"
#include "sweep_cli.hh"

using namespace storemlp;
using namespace storemlp::tools;

namespace
{

/** The --cores axis: contention runs, fanned out per core count. */
int
runCoresSweep(const Cli &cli, const SweepRequest &req)
{
    for (const char *bad : {"epoch-log", "retries"}) {
        if (cli.has(bad)) {
            cli.fail(std::string("--") + bad +
                     " cannot be combined with --cores");
        }
    }
    // --models still crosses the config axis here, exactly as the
    // request expansion does: names gain "@MODEL", the model overrides
    // the config's own.
    std::vector<SweepConfigEntry> configs;
    if (req.models.empty()) {
        configs = req.configs;
    } else {
        for (const SweepConfigEntry &entry : req.configs) {
            for (size_t mi = 0; mi < req.models.size(); ++mi) {
                ModelDescriptor d =
                    ModelDescriptor::parse(req.models[mi]);
                SweepConfigEntry crossed = entry;
                crossed.config.memoryModel = d;
                crossed.name += "@" +
                    (d.name == "custom"
                         ? "custom" + std::to_string(mi)
                         : d.name);
                configs.push_back(std::move(crossed));
            }
        }
    }

    std::vector<uint32_t> core_counts;
    for (const std::string &tok : splitList(cli.str("cores", ""), ',')) {
        std::optional<uint64_t> v = parseU64Strict(tok);
        if (!v || !*v || *v > UINT32_MAX) {
            cli.fail("bad --cores entry '" + tok +
                     "': expected a positive 32-bit integer");
        }
        core_counts.push_back(static_cast<uint32_t>(*v));
    }
    if (core_counts.empty())
        cli.fail("--cores requires at least one core count");
    uint64_t chips_flag = cli.num("chips", 0);

    struct McRun
    {
        const SweepConfigEntry *entry;
        std::string workload;
        uint32_t cores;
        std::string name;
        MultiRunOutput output;
        double wallMs = 0.0;
        bool ok = false;
        std::string errorMessage;
    };
    std::vector<McRun> runs;
    for (const std::string &wl : req.workloads) {
        (void)workloadProfileForName(wl);
        for (const SweepConfigEntry &entry : configs) {
            for (uint32_t n : core_counts) {
                if (chips_flag > n) {
                    cli.fail("--chips " + std::to_string(chips_flag) +
                             " exceeds core count " +
                             std::to_string(n));
                }
                McRun r;
                r.entry = &entry;
                r.workload = wl;
                r.cores = n;
                r.name = wl + "_" + entry.name +
                    "@cores=" + std::to_string(n);
                runs.push_back(std::move(r));
            }
        }
    }

    std::optional<double> shared_frac;
    if (cli.has("shared-frac"))
        shared_frac = cli.fnum("shared-frac", 0.0);
    std::optional<double> lock_prob;
    if (cli.has("lock-prob"))
        lock_prob = cli.fnum("lock-prob", 0.0);
    uint64_t quantum = quantumArg(cli);

    std::vector<std::function<void()>> tasks;
    for (McRun &r : runs) {
        tasks.push_back([&r, &req, chips_flag, quantum, shared_frac,
                         lock_prob] {
            MultiRunSpec spec;
            spec.profile = workloadProfileForName(r.workload);
            spec.config = r.entry->config;
            spec.seed = req.seed;
            spec.warmupInsts = req.warmupInsts;
            spec.measureInsts = req.measureInsts;
            spec.quantum = quantum;
            spec.cores = r.cores;
            spec.chips = chips_flag
                ? static_cast<uint32_t>(chips_flag)
                : r.cores;
            spec.sharedStoreFrac = shared_frac;
            spec.lockProb = lock_prob;
            spec.chunkInsts = req.chunkInsts;
            auto t0 = std::chrono::steady_clock::now();
            r.output = MultiCoreRunner::run(spec);
            r.wallMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
            r.ok = true;
        });
    }

    // Not RunSpec-shaped, so the runs go through the generic task
    // fan-out; slots are indexed, keeping results in submission order
    // regardless of --jobs.
    unsigned jobs = static_cast<unsigned>(cli.num("jobs", 0));
    std::vector<TaskStatus> statuses = parallelForEach(tasks, jobs);
    size_t failed = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        if (!statuses[i].ok) {
            runs[i].errorMessage = statuses[i].errorMessage;
            ++failed;
        }
    }

    OutFormat fmt = outFormat(cli);
    OutputSink sink(cli);
    std::ostream &os = sink.stream();

    if (fmt == OutFormat::Csv) {
        os << "workload,config,cores,chips,epochs_per_1000,"
              "mean_offchip_cpi,bus_invalidations,"
              "bus_inval_per_1000,bus_dirty_transfers,wall_ms,"
              "ok\n";
        for (const McRun &r : runs) {
            os << r.workload << "," << r.entry->name << "@cores="
               << r.cores << "," << r.cores << ","
               << (chips_flag ? chips_flag : r.cores) << ","
               << r.output.combinedEpochsPer1000() << ","
               << r.output.meanOffChipCpi(r.entry->config.missLatency)
               << "," << r.output.busInvalidations << ","
               << r.output.busInvalidationsPer1000() << ","
               << r.output.busDirtyTransfers << "," << r.wallMs << ","
               << (r.ok ? 1 : 0) << "\n";
        }
        for (const McRun &r : runs) {
            if (!r.ok)
                std::cerr << "error: " << r.errorMessage << "\n";
        }
        return failed ? 1 : 0;
    }

    if (fmt == OutFormat::Json) {
        for (const McRun &r : runs) {
            StatsMeta meta = {
                {"tool", "storemlp_sweep"},
                {"kind", "run"},
                {"mode", "multicore"},
                {"workload", r.workload},
                {"config", r.entry->name},
                {"run", r.name},
                {"cores", std::to_string(r.cores)},
                {"chips", std::to_string(
                              chips_flag ? chips_flag : r.cores)},
                {"seed", std::to_string(req.seed)},
                {"warmup", std::to_string(req.warmupInsts)},
                {"measure", std::to_string(req.measureInsts)},
            };
            if (!r.ok)
                meta.push_back({"error", r.errorMessage});
            StatsRegistry reg;
            if (r.ok)
                r.output.exportStats(reg);
            reg.counter("sweep.run.ok", r.ok ? 1 : 0);
            reg.scalar("sweep.run.wallMs", r.wallMs);
            writeStatsJson(os, reg, meta, /*pretty=*/false);
        }
        StatsMeta meta = {
            {"tool", "storemlp_sweep"},
            {"kind", "sweep-summary"},
            {"mode", "multicore"},
        };
        SweepOptions sopts;
        sopts.jobs = jobs;
        SweepEngine engine(sopts);
        StatsRegistry reg;
        engine.exportStats(reg);
        writeStatsJson(os, reg, meta, /*pretty=*/false);
        return failed ? 1 : 0;
    }

    size_t idx = 0;
    for (const std::string &wl : req.workloads) {
        TextTable table(
            "Multi-core sweep — " + wl + " (" +
            std::to_string(configs.size()) + " configs x " +
            std::to_string(core_counts.size()) + " core counts)");
        table.header({"run", "epochs/1000", "off-chip CPI",
                      "bus inval/1000", "dirty xfers", "wall ms"});
        for (size_t c = 0; c < configs.size(); ++c) {
            for (size_t n = 0; n < core_counts.size(); ++n) {
                const McRun &r = runs[idx++];
                table.beginRow();
                table.cell(r.entry->name + "@cores=" +
                           std::to_string(r.cores));
                if (!r.ok) {
                    table.cell("FAILED");
                    for (int k = 0; k < 3; ++k)
                        table.cell("-");
                    table.cell(r.wallMs, 1);
                    continue;
                }
                table.cell(r.output.combinedEpochsPer1000(), 3);
                table.cell(r.output.meanOffChipCpi(
                               r.entry->config.missLatency),
                           3);
                table.cell(r.output.busInvalidationsPer1000(), 3);
                table.cell(static_cast<double>(
                               r.output.busDirtyTransfers),
                           0);
                table.cell(r.wallMs, 1);
            }
        }
        table.print(os);
    }
    if (failed) {
        os << failed << " of " << runs.size() << " runs failed:\n";
        for (const McRun &r : runs) {
            if (!r.ok)
                os << "  " << r.name << ": " << r.errorMessage << "\n";
        }
    }
    return failed ? 1 : 0;
}

int
toolMain(int argc, char **argv)
{
    std::vector<FlagSpec> flags = sweepRequestFlags();
    flags.insert(flags.end(), {
        {"cores", "LIST",
         "sweep the core-count axis: run every (workload, config)\n"
         "point on the N-core contention runner for each core count\n"
         "in LIST (comma-separated, e.g. 1,2,4,8); run names become\n"
         "config@cores=N"},
        {"chips", "N",
         "chips for --cores runs (default: one chip per core);\n"
         "cores are assigned round-robin"},
        {"quantum", "N",
         "interleaving quantum for --cores runs (default 256)"},
        {"shared-frac", "F",
         "shared-store fraction override for --cores runs"},
        {"lock-prob", "F",
         "lock-density override for --cores runs"},
        kJobsFlag,
        {"no-trace-cache", "",
         "accepted and ignored: runs that read one trace share its\n"
         "producer, and no trace is cached"},
        {"epoch-log", "DIR",
         "write one JSON-lines epoch trace per run into DIR"},
        kFormatFlag, kOutFlag,
    });
    Cli cli(argc, argv, std::move(flags));

    SweepRequest req = sweepRequestFromFlags(cli);

    if (cli.has("cores"))
        return runCoresSweep(cli, req);

    // Expand exactly like the engine / daemon would; the planned runs
    // keep their specs accessible so per-run epoch logs can attach.
    std::vector<PlannedRun> planned;
    try {
        planned = expandSweepRuns(req);
    } catch (const ConfigError &e) {
        cli.fail(e.what());
    }

    // One epoch-log stream per run: the workers run concurrently, so
    // the runs cannot share a sink.
    std::vector<std::unique_ptr<std::ofstream>> epoch_logs;
    if (cli.has("epoch-log")) {
        std::filesystem::path log_dir = cli.str("epoch-log", "");
        std::error_code ec;
        std::filesystem::create_directories(log_dir, ec);
        if (ec)
            cli.fail("cannot create --epoch-log directory '" +
                     log_dir.string() + "': " + ec.message());
        for (PlannedRun &run : planned) {
            auto log = std::make_unique<std::ofstream>(
                log_dir / (run.name + ".epochs.jsonl"));
            if (!*log)
                cli.fail("cannot open epoch log for run '" + run.name +
                         "'");
            run.spec.epochLog = log.get();
            epoch_logs.push_back(std::move(log));
        }
    }

    SweepOptions opts;
    if (cli.has("jobs"))
        opts.jobs = static_cast<unsigned>(cli.num("jobs", 0));
    applyRequestOptions(opts, req);
    SweepEngine engine(opts);
    std::vector<RunOutcome> results = engine.execute(planned);

    // Fault containment: failed runs are reported (and fail the exit
    // code) but never discard the completed results.
    size_t failed = 0;
    for (const RunOutcome &r : results)
        failed += r.ok ? 0 : 1;

    OutFormat fmt = outFormat(cli);
    OutputSink sink(cli);
    std::ostream &os = sink.stream();

    if (fmt == OutFormat::Csv) {
        os << "workload,config,epochs_per_1000,mlp,store_mlp,"
              "offchip_cpi,overlapped_frac,wall_ms,ok\n";
        for (size_t i = 0; i < results.size(); ++i) {
            const RunOutcome &r = results[i];
            uint32_t miss_latency = planned[i].spec.config.missLatency;
            os << r.workload << ","
               << runConfigLabel(r.configName, r.model) << ","
               << r.output.sim.epochsPer1000() << ","
               << r.output.sim.mlp() << "," << r.output.sim.storeMlp()
               << "," << r.output.sim.offChipCpi(miss_latency) << ","
               << r.output.sim.overlappedStoreFraction() << ","
               << r.wallMs << "," << (r.ok ? 1 : 0) << "\n";
        }
        for (const RunOutcome &r : results) {
            if (!r.ok)
                std::cerr << "error: " << r.errorMessage << "\n";
        }
        return failed ? 1 : 0;
    }

    if (fmt == OutFormat::Json) {
        // JSON lines: one compact schemaVersion-2 document per run —
        // the same documents a sweep daemon streams for this request,
        // produced by the same runOutcomeJson — then an engine
        // summary document (trace groups, job count, retry policy).
        ArtifactSource src;
        src.tool = "storemlp_sweep";
        src.host = localHostName();
        src.requestFingerprint = sweepRequestFingerprint(req);
        for (const RunOutcome &r : results) {
            os << runOutcomeJson(r, src, req.seed, req.warmupInsts,
                                 req.measureInsts);
        }
        StatsMeta meta = {
            {"tool", "storemlp_sweep"},
            {"kind", "sweep-summary"},
        };
        StatsRegistry reg;
        engine.exportStats(reg);
        writeStatsJson(os, reg, meta, /*pretty=*/false);
        return failed ? 1 : 0;
    }

    size_t idx = 0;
    for (const std::string &wl : req.workloads) {
        size_t per_wl = results.size() / req.workloads.size();
        TextTable table("Sweep — " + wl + " (" +
                        std::to_string(per_wl) + " configs)");
        table.header({"config", "epochs/1000", "MLP", "store MLP",
                      "off-chip CPI", "overlapped", "wall ms"});
        for (size_t c = 0; c < per_wl; ++c) {
            const RunOutcome &r = results[idx];
            uint32_t miss_latency =
                planned[idx].spec.config.missLatency;
            ++idx;
            table.beginRow();
            table.cell(runConfigLabel(r.configName, r.model));
            if (!r.ok) {
                table.cell("FAILED");
                for (int k = 0; k < 4; ++k)
                    table.cell("-");
                table.cell(r.wallMs, 1);
                continue;
            }
            table.cell(r.output.sim.epochsPer1000(), 3);
            table.cell(r.output.sim.mlp(), 3);
            table.cell(r.output.sim.storeMlp(), 3);
            table.cell(r.output.sim.offChipCpi(miss_latency), 3);
            table.cell(r.output.sim.overlappedStoreFraction(), 3);
            table.cell(r.wallMs, 1);
        }
        table.print(os);
    }

    os << "simulations: " << engine.simulations() << ", trace groups: "
       << engine.traceGroups() << ", "
       << engine.traceChunksProduced() << " chunks produced\n";
    if (failed) {
        os << failed << " of " << results.size() << " runs failed:\n";
        for (const RunOutcome &r : results) {
            if (!r.ok)
                os << "  " << r.errorMessage << "\n";
        }
    }
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
