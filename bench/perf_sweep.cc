/**
 * @file
 * Sweep-engine performance harness (google-benchmark): wall-clock of
 * a fig7-style configuration batch at 1/2/4 worker threads, and the
 * trace-cache effect in isolation (same batch, cache on vs off, one
 * worker). The batch is 12 runs over 2 distinct traces (PC + WC
 * rewrite), so the chunk cache eliminates 10 of 12 generations.
 */

#include <ostream>
#include <streambuf>

#include <benchmark/benchmark.h>

#include "core/runner.hh"
#include "core/sweep.hh"
#include "trace/trace_source.hh"

using namespace storemlp;

namespace
{

/** Discards everything: isolates epoch-log record cost from disk. */
class NullBuf : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

std::vector<PlannedRun>
fig7StyleBatch(uint64_t warmup, uint64_t measure)
{
    const SimConfig configs[] = {SimConfig::defaults(),
                                 SimConfig::pc2(),
                                 SimConfig::pc3(),
                                 SimConfig::wc1(),
                                 SimConfig::wc2(),
                                 SimConfig::wc3()};
    std::vector<PlannedRun> runs;
    for (const SimConfig &cfg : configs) {
        for (StorePrefetch sp :
             {StorePrefetch::AtRetire, StorePrefetch::AtExecute}) {
            PlannedRun run;
            run.spec.profile = WorkloadProfile::database();
            run.spec.config = cfg.withPrefetch(sp);
            run.spec.warmupInsts = warmup;
            run.spec.measureInsts = measure;
            runs.push_back(run);
        }
    }
    return runs;
}

void
BM_SweepJobs(benchmark::State &state)
{
    std::vector<PlannedRun> runs = fig7StyleBatch(100000, 200000);
    for (auto _ : state) {
        // Fresh engine + cache per iteration: measures a cold sweep
        // (generation + simulation), the shape of a bench binary run.
        TraceCache cache;
        SweepOptions opts;
        opts.jobs = static_cast<unsigned>(state.range(0));
        opts.progress = false;
        SweepEngine engine(opts, &cache);
        auto results = engine.execute(runs);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(runs.size()));
}
BENCHMARK(BM_SweepJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void
BM_SweepTraceCache(benchmark::State &state)
{
    std::vector<PlannedRun> runs = fig7StyleBatch(100000, 200000);
    bool use_cache = state.range(0) != 0;
    for (auto _ : state) {
        TraceCache cache;
        SweepOptions opts;
        opts.jobs = 1;
        opts.useTraceCache = use_cache;
        opts.progress = false;
        SweepEngine engine(opts, &cache);
        auto results = engine.execute(runs);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(runs.size()));
}
BENCHMARK(BM_SweepTraceCache)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_EpochLog(benchmark::State &state)
{
    // Arg(0): epoch log disabled (the null-sink branch per counted
    // epoch). Arg(1): enabled, writing JSON lines into a discarding
    // stream — serialization cost without disk noise.
    RunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 100000;
    spec.measureInsts = 200000;
    NullBuf buf;
    std::ostream null_os(&buf);
    bool enabled = state.range(0) != 0;
    if (enabled)
        spec.epochLog = &null_os;
    Trace trace = materializeSource(*openRunSource(SourceSpec::forRun(spec)));
    for (auto _ : state) {
        MaterializedSource src(trace);
        RunOutput out = Runner::run(spec, src);
        benchmark::DoNotOptimize(out.sim.epochs);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochLog)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
