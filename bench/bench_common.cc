/**
 * @file
 * Bench helper implementation.
 */

#include "bench_common.hh"

#include <cstdlib>
#include <optional>
#include <fstream>
#include <iostream>
#include <streambuf>

#include "stats/stats_json.hh"
#include "util/parse.hh"

namespace storemlp::bench
{

namespace
{

struct BenchIo
{
    std::string tool = "bench";
    tools::OutFormat fmt = tools::OutFormat::Text;
    std::ofstream file;
    bool toFile = false;
    // Flag overrides; empty/zero defers to the environment knobs.
    std::optional<uint64_t> warmupOverride;
    std::optional<uint64_t> measureOverride;
    unsigned jobs = 0;
    uint64_t chunkInsts = 0;
};

BenchIo &
io()
{
    static BenchIo b;
    return b;
}

class NullBuf : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
};

std::ostream &
nullStream()
{
    static NullBuf buf;
    static std::ostream os(&buf);
    return os;
}

} // namespace

void
benchInit(int argc, char **argv, const char *tool)
{
    io().tool = tool;
    tools::Cli cli(argc, argv, {
        tools::kFormatFlag, tools::kOutFlag,
        tools::kJobsFlag, tools::kWarmupFlag, tools::kMeasureFlag,
        tools::kChunkInstsFlag,
    });
    io().fmt = tools::outFormat(cli);
    if (cli.has("out")) {
        std::string path = cli.str("out", "");
        io().file.open(path);
        if (!io().file)
            cli.fail("cannot open --out file '" + path + "'");
        io().toFile = true;
    }
    // Flags beat the STOREMLP_* environment knobs: an explicit
    // command line should never be silently rescaled by ambient env.
    if (cli.has("warmup"))
        io().warmupOverride = cli.num("warmup", 0);
    if (cli.has("measure"))
        io().measureOverride = cli.num("measure", 0);
    if (cli.has("jobs"))
        io().jobs = static_cast<unsigned>(cli.num("jobs", 0));
    io().chunkInsts = tools::chunkInstsArg(cli);
}

tools::OutFormat
benchFormat()
{
    return io().fmt;
}

std::ostream &
out()
{
    return io().toFile ? io().file : std::cout;
}

std::ostream &
prose()
{
    return io().fmt == tools::OutFormat::Text ? out() : nullStream();
}

BenchScale
BenchScale::fromEnv()
{
    // Strict parses: a typo'd scale knob must abort, not silently
    // run a full-length (or zero-length) experiment.
    BenchScale s;
    s.warmup = envU64Strict("STOREMLP_WARMUP", s.warmup, 1);
    s.measure = envU64Strict("STOREMLP_MEASURE", s.measure, 1);
    s.smacWarmup = envU64Strict("STOREMLP_SMAC_WARMUP", s.smacWarmup, 1);
    s.smacMeasure =
        envU64Strict("STOREMLP_SMAC_MEASURE", s.smacMeasure, 1);
    if (io().warmupOverride)
        s.warmup = *io().warmupOverride;
    if (io().measureOverride)
        s.measure = *io().measureOverride;
    return s;
}

std::vector<WorkloadProfile>
workloads()
{
    return WorkloadProfile::allCommercial();
}

void
applyScale(RunSpec &spec, const BenchScale &scale)
{
    spec.warmupInsts = scale.warmup;
    spec.measureInsts = scale.measure;
}

std::vector<RunOutput>
sweepAll(const std::vector<RunSpec> &specs)
{
    std::vector<PlannedRun> planned(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        planned[i].name = "bench" + std::to_string(i);
        planned[i].spec = specs[i];
    }
    // Built on first use, after benchInit has parsed the command
    // line. Each call makes its own traces, one per trace group.
    static SweepEngine engine([] {
        SweepOptions opts;
        opts.jobs = io().jobs;
        opts.chunkInsts = io().chunkInsts;
        return opts;
    }());
    std::vector<RunOutcome> outcomes = engine.execute(planned);
    std::vector<RunOutput> outs;
    outs.reserve(outcomes.size());
    for (RunOutcome &o : outcomes) {
        // A failed cell is fatal for a bench binary — its table
        // would be missing entries.
        if (!o.ok)
            throw SimError(o.errorMessage);
        outs.push_back(std::move(o.output));
    }
    return outs;
}

void
sweepTasks(const std::vector<std::function<void()>> &tasks)
{
    // All tasks run to completion; the first failure is then fatal.
    std::vector<TaskStatus> statuses =
        parallelForEach(tasks, io().jobs);
    for (const TaskStatus &s : statuses) {
        if (!s.ok)
            throw SimError(s.errorMessage);
    }
}

void
printTable(const TextTable &table)
{
    std::ostream &os = out();
    switch (io().fmt) {
      case tools::OutFormat::Json:
        writeTableJson(os, table, {{"tool", io().tool}},
                       /*pretty=*/false);
        return;
      case tools::OutFormat::Csv:
        os << "csv:" << table.title() << "\n";
        table.printCsv(os);
        os << "\n";
        return;
      case tools::OutFormat::Text:
        break;
    }
    table.print(os);
    if (const char *csv = std::getenv("STOREMLP_CSV")) {
        if (csv[0] && csv[0] != '0') {
            os << "csv:" << table.title() << "\n";
            table.printCsv(os);
            os << "\n";
        }
    }
}

} // namespace storemlp::bench
