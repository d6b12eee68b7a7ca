/**
 * @file
 * storemlp_calibrate: fit one workload-profile knob so a Table-1
 * metric hits a target, via the secant method on the cache-only
 * measurement. The tool that produced the shipped profiles' final
 * trims, packaged for users adding their own workloads.
 *
 *   storemlp_calibrate --workload database --knob storeColdProb \
 *                      --metric storeMiss --target 0.36
 */

#include <cmath>
#include <iostream>
#include <sstream>

#include "cli_util.hh"
#include "core/config_io.hh"
#include "core/runner.hh"
#include "stats/stats_json.hh"

using namespace storemlp;
using namespace storemlp::tools;

namespace
{

double *
knobPtr(WorkloadProfile &p, const std::string &name, const Cli &cli)
{
    if (name == "storeColdProb")
        return &p.storeColdProb;
    if (name == "loadColdProb")
        return &p.loadColdProb;
    if (name == "instColdProb")
        return &p.instColdProb;
    if (name == "lockProb")
        return &p.lockProb;
    if (name == "flushPhaseProb")
        return &p.flushPhaseProb;
    cli.fail("unknown --knob '" + name + "'");
}

double
metricOf(const Runner::MissRates &r, const std::string &name,
         const Cli &cli)
{
    if (name == "storeMiss")
        return r.storeMissPer100;
    if (name == "loadMiss")
        return r.loadMissPer100;
    if (name == "instMiss")
        return r.instMissPer100;
    if (name == "storeFreq")
        return r.storesPer100;
    cli.fail("unknown --metric '" + name + "'");
}

int
toolMain(int argc, char **argv)
{
    Cli cli(argc, argv, {
        kWorkloadFlag,
        {"profile", "PATH", "start from a custom profile file"},
        {"knob", "NAME",
         "storeColdProb|loadColdProb|instColdProb|lockProb|"
         "flushPhaseProb"},
        {"metric", "NAME", "storeMiss|loadMiss|instMiss|storeFreq"},
        {"target", "X", "desired per-100-instruction value"},
        kWarmupFlag, kMeasureFlag, kSeedFlag,
        {"iters", "N", "secant iterations (default 6)"},
        {"emit", "", "print the fitted profile as key=value"},
        kFormatFlag, kOutFlag,
    });
    if (!cli.has("knob") || !cli.has("metric") || !cli.has("target"))
        cli.fail("--knob, --metric and --target are required");

    WorkloadProfile profile;
    if (cli.has("profile")) {
        try {
            profile = loadWorkloadProfileFile(cli.str("profile", ""));
        } catch (const ConfigError &e) {
            cli.fail(e.what());
        }
    } else {
        profile = workloadByName(cli, cli.str("workload", "database"));
    }

    std::string knob = cli.str("knob", "");
    std::string metric = cli.str("metric", "");
    double target = std::strtod(cli.str("target", "0").c_str(),
                                nullptr);
    uint64_t warmup, measure, seed;
    applyRunLengths(cli, warmup, measure, seed);
    uint64_t iters = cli.num("iters", 6);

    OutFormat fmt = outFormat(cli);
    OutputSink sink(cli);
    std::ostream &os = sink.stream();
    // Iteration prose belongs to the text report only; structured
    // formats emit one fitted-result document at the end.
    std::ostringstream discard;
    std::ostream &prose = fmt == OutFormat::Text ? os : discard;
    uint64_t evals = 0;

    auto evaluate = [&](double value) {
        WorkloadProfile p = profile;
        *knobPtr(p, knob, cli) = value;
        Runner::MissRates r =
            Runner::measureMissRates(p, seed, warmup, measure);
        ++evals;
        return metricOf(r, metric, cli);
    };

    // Secant method with two seed points around the current value.
    double x0 = *knobPtr(profile, knob, cli);
    if (x0 <= 0.0)
        x0 = 1e-4;
    double x1 = x0 * 1.5;
    double f0 = evaluate(x0) - target;
    double f1 = evaluate(x1) - target;
    prose << "iter 0: " << knob << "=" << x0 << " -> "
          << f0 + target << "\n";
    prose << "iter 1: " << knob << "=" << x1 << " -> "
          << f1 + target << "\n";

    for (uint64_t i = 2; i < 2 + iters; ++i) {
        if (std::fabs(f1 - f0) < 1e-12)
            break;
        double x2 = x1 - f1 * (x1 - x0) / (f1 - f0);
        if (x2 < 0.0)
            x2 = x1 / 2.0;
        double f2 = evaluate(x2) - target;
        prose << "iter " << i << ": " << knob << "=" << x2
              << " -> " << f2 + target << "\n";
        x0 = x1;
        f0 = f1;
        x1 = x2;
        f1 = f2;
        if (std::fabs(f1) < 0.02 * std::fabs(target) + 1e-4)
            break;
    }

    if (fmt != OutFormat::Text) {
        StatsMeta meta = {
            {"tool", "storemlp_calibrate"},
            {"workload", profile.name},
            {"knob", knob},
            {"metric", metric},
        };
        StatsRegistry reg;
        reg.scalar("calibrate.fitted", x1);
        reg.scalar("calibrate.achieved", f1 + target);
        reg.scalar("calibrate.target", target);
        reg.counter("calibrate.evaluations", evals);
        if (fmt == OutFormat::Json)
            writeStatsJson(os, reg, meta, /*pretty=*/true);
        else
            writeStatsCsv(os, reg, meta);
        return 0;
    }

    os << "\nfitted: " << knob << " = " << x1 << "  ("
       << metric << " = " << f1 + target << ", target "
       << target << ")\n";

    if (cli.flag("emit")) {
        WorkloadProfile fitted = profile;
        *knobPtr(fitted, knob, cli) = x1;
        os << "\n";
        saveWorkloadProfile(os, fitted);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
