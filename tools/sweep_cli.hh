/**
 * @file
 * Shared sweep-request construction for the sweep tools. The local
 * `storemlp_sweep` and the networked `storemlp_sweepc` both build
 * their `SweepRequest` through `sweepRequestFromFlags`, from the same
 * flag table — so a batch submitted over the wire is, provably, the
 * batch the local tool would have run.
 */

#ifndef STOREMLP_TOOLS_SWEEP_CLI_HH
#define STOREMLP_TOOLS_SWEEP_CLI_HH

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cli_util.hh"
#include "core/config_io.hh"
#include "core/sweep_request.hh"

namespace storemlp::tools
{

/** Flags consumed by sweepRequestFromFlags, for a tool's Cli table. */
inline std::vector<FlagSpec>
sweepRequestFlags()
{
    return {
        {"dir", "PATH",
         "directory of *.cfg SimConfig files (default: configs)"},
        {"workload", "all|NAME",
         "workload(s) to sweep (default all, the paper's four):\n" +
             workloadNameList()},
        {"models", "LIST",
         "also sweep the memory-model axis: run every config under\n"
         "each model in LIST (';'-separated presets or key=val\n"
         "descriptors; ',' also splits when no ';' is present)"},
        kWarmupFlag, kMeasureFlag, kSeedFlag,
        {"retries", "N",
         "retry a failing run up to N extra times (default 0)"},
        {"stream", "",
         "accepted for compatibility; every run streams its\n"
         "trace in chunks (runs over one trace share its\n"
         "producer, a few chunks resident per trace group)"},
        kChunkInstsFlag,
    };
}

/**
 * Build a SweepRequest from the shared flags: configs from --dir
 * (sorted by file name, named by stem), workloads from --workload,
 * optional --models axis, run lengths and execution options. Exits 2
 * via cli.fail on unreadable directories or unparsable configs.
 */
inline SweepRequest
sweepRequestFromFlags(const Cli &cli)
{
    SweepRequest req;

    std::string dir = cli.str("dir", "configs");
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".cfg")
            files.push_back(entry.path());
    }
    if (ec)
        cli.fail("cannot read directory '" + dir + "': " + ec.message());
    if (files.empty())
        cli.fail("no .cfg files in '" + dir + "'");
    std::sort(files.begin(), files.end());

    for (const auto &f : files) {
        SweepConfigEntry entry;
        entry.name = f.stem().string();
        try {
            entry.config = loadSimConfigFile(f.string());
        } catch (const ConfigError &e) {
            cli.fail(e.what());
        }
        req.configs.push_back(std::move(entry));
    }

    std::string wl = cli.str("workload", "all");
    if (wl == "all") {
        for (const NamedWorkload &w : kNamedWorkloads) {
            if (w.paper)
                req.workloads.push_back(w.name);
        }
    } else {
        (void)workloadByName(cli, wl); // validate (exit 2 on typo)
        req.workloads = {wl};
    }

    if (cli.has("models")) {
        std::string list = cli.str("models", "");
        req.models =
            splitList(list, list.find(';') != std::string::npos ? ';' : ',');
        if (req.models.empty())
            cli.fail("--models requires at least one model");
        for (const std::string &m : req.models) {
            try {
                (void)ModelDescriptor::parse(m);
            } catch (const ConfigError &e) {
                cli.fail(e.what());
            }
        }
    }

    applyRunLengths(cli, req.warmupInsts, req.measureInsts, req.seed);
    if (cli.has("retries"))
        req.retries = static_cast<unsigned>(cli.num("retries", 0));
    // The request's streaming field is ignored (every run streams);
    // it is still set as before so a command line keeps its request
    // fingerprint.
    req.streaming = cli.flag("stream") || cli.has("chunk-insts");
    req.chunkInsts = chunkInstsArg(cli);
    return req;
}

/** Axis label used in tables/CSV: config plus any model suffix. */
inline std::string
runConfigLabel(const std::string &config_name, const std::string &model)
{
    return model.empty() ? config_name : config_name + "@" + model;
}

} // namespace storemlp::tools

#endif // STOREMLP_TOOLS_SWEEP_CLI_HH
