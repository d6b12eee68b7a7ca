/**
 * @file
 * Simulator performance harness (google-benchmark): trace generation
 * throughput, cache-only replay throughput, full epoch-engine
 * throughput on each commercial workload, lock analysis throughput,
 * and on-disk v4 trace decode throughput.
 *
 * The decode benchmark defaults to a generated database-profile trace
 * written to a temp v4 file; pass `--trace PATH` to measure decode of
 * an existing trace file instead (the flag is consumed here, before
 * google-benchmark parses the rest).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "core/runner.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

using namespace storemlp;

namespace
{

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadProfile profile = WorkloadProfile::database();
    uint64_t n = static_cast<uint64_t>(state.range(0));
    uint64_t seed = 1;
    for (auto _ : state) {
        SyntheticTraceGenerator gen(profile, seed++);
        Trace t = gen.generate(n);
        benchmark::DoNotOptimize(t.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_TraceGeneration)->Arg(100000);

void
BM_CacheReplay(benchmark::State &state)
{
    WorkloadProfile profile = WorkloadProfile::database();
    SyntheticTraceGenerator gen(profile, 1);
    Trace trace = gen.generate(100000);
    for (auto _ : state) {
        CacheHierarchy hier;
        for (const auto &r : trace.records()) {
            hier.instFetch(r.pc);
            if (isLoadClass(r.cls))
                hier.load(r.addr);
            if (isStoreClass(r.cls))
                hier.store(r.addr);
        }
        benchmark::DoNotOptimize(hier.l2Accesses());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_CacheReplay);

/**
 * The epoch engine over 100k in-memory records. Each run streams a
 * fresh MaterializedSource, so its chunks derive their lanes inside
 * the timed loop, as every source's chunks do in a real run.
 */
void
epochEngineBench(benchmark::State &state, WorkloadProfile profile,
                 SimConfig cfg)
{
    SyntheticTraceGenerator gen(profile, 1);
    Trace trace = gen.generate(100000);
    MaterializedSource whole(trace);
    LockAnalysis locks = LockDetector().analyze(whole);
    cfg.cpiOnChip = profile.cpiOnChip;
    for (auto _ : state) {
        ChipNode chip(HierarchyConfig{}, 0);
        MlpSimulator sim(cfg, chip, &locks);
        MaterializedSource src(trace);
        SimResult res = sim.run(src);
        benchmark::DoNotOptimize(res.epochs);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(trace.size()));
}

void
BM_EpochEngine_Database(benchmark::State &state)
{
    epochEngineBench(state, WorkloadProfile::database(),
                     SimConfig::defaults());
}
BENCHMARK(BM_EpochEngine_Database);

void
BM_EpochEngine_SpecJbb(benchmark::State &state)
{
    epochEngineBench(state, WorkloadProfile::specjbb(),
                     SimConfig::defaults());
}
BENCHMARK(BM_EpochEngine_SpecJbb);

void
BM_EpochEngineScout_Database(benchmark::State &state)
{
    epochEngineBench(state, WorkloadProfile::database(),
                     SimConfig::defaults().withScout(ScoutMode::Hws2));
}
BENCHMARK(BM_EpochEngineScout_Database);

/** Every chunk of a source, made (lanes included) up front. */
class HeldChunks : public TraceSource
{
  public:
    explicit HeldChunks(TraceSource &src) : TraceSource(src.chunkInsts())
    {
        for (;;) {
            std::shared_ptr<const TraceChunk> c = src.fetch(_chunks.size());
            if (!c)
                break;
            c->lanes();
            _records += c->count;
            _chunks.push_back(std::move(c));
        }
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        return chunk_idx < _chunks.size() ? _chunks[chunk_idx] : nullptr;
    }
    std::optional<uint64_t> knownSize() const override { return _records; }

  private:
    std::vector<std::shared_ptr<const TraceChunk>> _chunks;
    uint64_t _records = 0;
};

/**
 * Lock analysis of 1M specjbb WC records (the profile with the most
 * locking) from chunks already made, as an SLE/TM run's analysis reads
 * the chunks its engine fetches: the detector alone is timed.
 */
void
BM_LockAnalysis(benchmark::State &state)
{
    WcRewriteSource wc(std::make_unique<GeneratorSource>(
        WorkloadProfile::specjbb(), 1, 1000000));
    HeldChunks chunks(wc);
    for (auto _ : state) {
        LockAnalysis a = LockDetector().analyze(chunks);
        benchmark::DoNotOptimize(a.pairs.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(*chunks.knownSize()));
}
BENCHMARK(BM_LockAnalysis);

/**
 * Full streaming decode of an on-disk trace: construct the source
 * (header + index parse) and walk every record, exactly what a
 * `storemlp_sim --trace` run pays before simulation. Items are
 * records, bytes are file bytes, so the two rates read directly as
 * records/s and on-disk MB/s.
 */
void
traceDecodeBench(benchmark::State &state, const std::string &path)
{
    uint64_t file_bytes = probeTraceFile(path).fileBytes;
    uint64_t records = 0;
    for (auto _ : state) {
        StreamingFileSource src(path);
        records = forEachRecord(
            src, 0, ~uint64_t{0}, [](const TraceRecord &r) {
                benchmark::DoNotOptimize(r.addr);
            });
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(file_bytes));
}

} // namespace

int
main(int argc, char **argv)
{
    // Consume --trace before google-benchmark sees it (it rejects
    // unknown flags).
    std::vector<char *> args;
    std::string trace_path;
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--trace=", 0) == 0) {
            trace_path = a.substr(8);
            continue;
        }
        if (a == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
            continue;
        }
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());

    std::string temp_file;
    if (trace_path.empty()) {
        SyntheticTraceGenerator gen(WorkloadProfile::database(), 1);
        Trace trace = gen.generate(200000);
        std::string v4 = "/tmp/storemlp_perf_decode_v4.trc";
        writeTraceFileV4(v4, trace, "bench");
        temp_file = v4;
        benchmark::RegisterBenchmark(
            "BM_TraceDecode_V4Chunked",
            [v4](benchmark::State &s) { traceDecodeBench(s, v4); });
    } else {
        benchmark::RegisterBenchmark(
            "BM_TraceDecode_File",
            [trace_path](benchmark::State &s) {
                traceDecodeBench(s, trace_path);
            });
    }

    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!temp_file.empty())
        std::remove(temp_file.c_str());
    return 0;
}
