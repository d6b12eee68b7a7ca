/**
 * @file
 * Streaming trace pipeline tests: every TraceSource must be
 * indistinguishable from the materialized trace it streams — same
 * records for every chunk size (including pathological ones), same
 * lock analysis, same WC rewrite, and bit-identical SimResults end to
 * end. Chunking is an execution strategy, never a model input.
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config_io.hh"
#include "core/runner.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "sim_test_util.hh"

namespace storemlp
{
namespace
{

bool
sameRec(const TraceRecord &a, const TraceRecord &b)
{
    return a.pc == b.pc && a.addr == b.addr && a.cls == b.cls &&
        a.size == b.size && a.dst == b.dst && a.src1 == b.src1 &&
        a.src2 == b.src2 && a.flags == b.flags;
}

/** Drain a source and compare against a reference trace. */
void
expectStreamEquals(TraceSource &src, const Trace &ref)
{
    uint64_t i = 0;
    uint64_t visited = forEachRecord(
        src, 0, ~uint64_t{0}, [&](const TraceRecord &r) {
            ASSERT_LT(i, ref.size());
            EXPECT_TRUE(sameRec(r, ref[i]))
                << "record " << i << " differs";
            ++i;
        });
    EXPECT_EQ(visited, ref.size());
}

Trace
makeTrace(uint64_t n, uint64_t seed = 7)
{
    SyntheticTraceGenerator gen(WorkloadProfile::tpcw(), seed, 0);
    return gen.generate(n);
}

TEST(GeneratorSource, MatchesOneShotGenerateAcrossChunkSizes)
{
    // The generator emits whole slots, so a run can overshoot the
    // requested count; chunked production must stop at the same slot
    // boundary as a single generate(N) call.
    const uint64_t n = 5000;
    Trace ref = makeTrace(n);
    for (uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{509},
                           uint64_t{4096}, uint64_t{1} << 16}) {
        GeneratorSource src(WorkloadProfile::tpcw(), 7, n, 0, chunk);
        expectStreamEquals(src, ref);
    }
}

TEST(GeneratorSource, RestartsDeterministicallyOnBackwardFetch)
{
    const uint64_t n = 3000;
    GeneratorSource src(WorkloadProfile::tpcw(), 7, n, 0, 256);
    TraceCursor cur(src);
    const TraceRecord *late = cur.tryAt(2000);
    ASSERT_NE(late, nullptr);
    TraceRecord saved_late = *late;
    const TraceRecord *early = cur.tryAt(3);
    ASSERT_NE(early, nullptr);
    TraceRecord saved_early = *early;
    // Forward again after the restart: identical bytes.
    const TraceRecord *late2 = cur.tryAt(2000);
    ASSERT_NE(late2, nullptr);
    EXPECT_TRUE(sameRec(*late2, saved_late));
    Trace ref = makeTrace(n);
    EXPECT_TRUE(sameRec(saved_early, ref[3]));
    EXPECT_TRUE(sameRec(saved_late, ref[2000]));
}

TEST(MaterializedSource, RoundTripsAndReportsSize)
{
    Trace ref = makeTrace(2000);
    MaterializedSource src(ref, 777);
    ASSERT_TRUE(src.knownSize().has_value());
    EXPECT_EQ(*src.knownSize(), ref.size());
    expectStreamEquals(src, ref);
    Trace copy = materializeSource(src);
    ASSERT_EQ(copy.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_TRUE(sameRec(copy[i], ref[i]));
}

TEST(StreamingLockDetector, MatchesBatchAnalysis)
{
    Trace trace = makeTrace(20000, 11);
    LockAnalysis batch = LockDetector().analyze(trace);

    MaterializedSource src(trace);
    LockAnalysis streamed = analyzeSource(src);

    ASSERT_EQ(streamed.roles.size(), batch.roles.size());
    for (size_t i = 0; i < batch.roles.size(); ++i)
        EXPECT_EQ(streamed.roles[i], batch.roles[i]) << "role " << i;
    ASSERT_EQ(streamed.pairs.size(), batch.pairs.size());
    for (size_t i = 0; i < batch.pairs.size(); ++i) {
        EXPECT_EQ(streamed.pairs[i].acquireIdx,
                  batch.pairs[i].acquireIdx);
        EXPECT_EQ(streamed.pairs[i].releaseIdx,
                  batch.pairs[i].releaseIdx);
        EXPECT_EQ(streamed.pairs[i].lockAddr, batch.pairs[i].lockAddr);
    }
}

TEST(WcRewriteSource, MatchesBatchRewriteAcrossChunkSizes)
{
    // Lock idioms that straddle a chunk boundary are the hard case:
    // the carry state (detector window + pending output) must splice
    // the expansion exactly where the batch rewriter puts it.
    Trace trace = makeTrace(20000, 13);
    LockAnalysis locks = LockDetector().analyze(trace);
    Trace ref = TraceRewriter().toWeakConsistency(trace, locks);

    for (uint64_t chunk : {uint64_t{1}, uint64_t{193}, uint64_t{4096}}) {
        auto inner = std::make_unique<MaterializedSource>(trace, chunk);
        WcRewriteSource src(std::move(inner));
        expectStreamEquals(src, ref);
        ASSERT_TRUE(src.knownSize().has_value());
        EXPECT_EQ(*src.knownSize(), ref.size());
    }
}

TEST(TraceCursor, TrimKeepsCurrentChunkUsable)
{
    Trace ref = makeTrace(1000);
    MaterializedSource src(ref, 128);
    TraceCursor cur(src);
    for (uint64_t i = 0; i < ref.size(); ++i) {
        const TraceRecord *rp = cur.tryAt(i);
        ASSERT_NE(rp, nullptr);
        EXPECT_TRUE(sameRec(*rp, ref[i]));
        cur.trim(i); // aggressive trim must never invalidate *rp's chunk
    }
    EXPECT_EQ(cur.tryAt(ref.size()), nullptr);
}

class FileSourceTest : public ::testing::Test
{
  protected:
    std::string
    writeTemp(const std::string &name,
              const std::function<void(std::ostream &)> &writer)
    {
        std::string path =
            ::testing::TempDir() + "trace_source_" + name + ".trc";
        std::ofstream os(path, std::ios::binary);
        writer(os);
        os.close();
        _paths.push_back(path);
        return path;
    }

    void TearDown() override
    {
        for (const std::string &p : _paths)
            std::remove(p.c_str());
    }

    std::vector<std::string> _paths;
};

TEST_F(FileSourceTest, StreamsV1V2V3Identically)
{
    Trace ref = makeTrace(6000, 17);
    std::string v1 = writeTemp(
        "v1", [&](std::ostream &os) { writeTrace(os, ref); });
    std::string v2 = writeTemp("v2", [&](std::ostream &os) {
        writeTraceCompressed(os, ref);
    });
    std::string v3 = writeTemp("v3", [&](std::ostream &os) {
        writeTraceV3(os, ref, "fp-test", /*compressed=*/true);
    });

    for (const std::string &path : {v1, v2, v3}) {
        for (uint64_t chunk : {uint64_t{1}, uint64_t{251},
                               uint64_t{1} << 16}) {
            StreamingFileSource src(path, chunk);
            ASSERT_TRUE(src.knownSize().has_value());
            EXPECT_EQ(*src.knownSize(), ref.size());
            expectStreamEquals(src, ref);
        }
    }
}

TEST_F(FileSourceTest, RandomAccessAcrossChunks)
{
    // The v2 body is a stateful delta encoding; random chunk access
    // goes through memoized boundaries and must still decode exact
    // records in any visit order.
    Trace ref = makeTrace(4000, 19);
    std::string path = writeTemp("rand", [&](std::ostream &os) {
        writeTraceCompressed(os, ref);
    });
    StreamingFileSource src(path, 256);
    TraceCursor cur(src);
    for (uint64_t idx : {uint64_t{3900}, uint64_t{0}, uint64_t{2048},
                         uint64_t{255}, uint64_t{256}, uint64_t{3900}}) {
        const TraceRecord *rp = cur.tryAt(idx);
        ASSERT_NE(rp, nullptr) << "index " << idx;
        EXPECT_TRUE(sameRec(*rp, ref[idx])) << "index " << idx;
    }
}

TEST_F(FileSourceTest, ProbeReadsHeaderOnly)
{
    Trace ref = makeTrace(1234, 23);
    std::string path = writeTemp("probe", [&](std::ostream &os) {
        writeTraceV3(os, ref, "probe-fingerprint", /*compressed=*/false);
    });
    TraceFileInfo info = probeTraceFile(path);
    EXPECT_EQ(info.version, 3u);
    EXPECT_EQ(info.bodyFormat, 1u);
    EXPECT_EQ(info.records, ref.size());
    EXPECT_EQ(info.fingerprint, "probe-fingerprint");
    EXPECT_GT(info.fileBytes, 0u);

    StreamingFileSource src(path);
    EXPECT_EQ(src.fingerprint(), "probe-fingerprint");
}

TEST(CachedSource, SharesChunksAndStaysExact)
{
    Trace ref = makeTrace(5000, 29);
    TraceCache cache(64ull << 20);
    auto make = [&] {
        return std::make_unique<CachedSource>(
            std::make_unique<MaterializedSource>(ref, 512), cache,
            "cached-source-test");
    };
    auto a = make();
    expectStreamEquals(*a, ref);
    uint64_t misses_after_first = cache.stats().misses;
    EXPECT_GT(misses_after_first, 0u);

    auto b = make();
    expectStreamEquals(*b, ref);
    EXPECT_EQ(cache.stats().misses, misses_after_first)
        << "second pass must be served from the chunk cache";
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(RunnerStreaming, BitIdenticalToMaterializedOnShippedConfigs)
{
    // The acceptance bar for the whole streaming pipeline: for every
    // shipped config (PC/WC, SLE, scout), SimResult must be
    // bit-identical between the materialized path and the chunked
    // streaming path — including chunk sizes that are not divisors of
    // the run length.
    const char *files[] = {"pc1.cfg", "pc2.cfg", "pc3.cfg",
                           "wc1.cfg", "wc2.cfg", "wc3.cfg",
                           "hws2.cfg"};
    int compared = 0;
    for (const char *f : files) {
        std::string path;
        for (const std::string &prefix :
             {std::string("configs/"), std::string("../configs/"),
              std::string("../../configs/")}) {  // NOLINT
            std::ifstream probe(prefix + f);
            if (probe) {
                path = prefix + f;
                break;
            }
        }
        if (path.empty())
            continue;

        RunSpec spec;
        spec.profile = WorkloadProfile::specjbb();
        spec.config = loadSimConfigFile(path);
        spec.warmupInsts = 20000;
        spec.measureInsts = 40000;

        RunOutput mat = test::runMaterialized(spec);
        for (uint64_t chunk : {uint64_t{1009}, uint64_t{0}}) {
            std::unique_ptr<TraceSource> src =
                Runner::makeSource(spec, chunk);
            RunOutput streamed = Runner::run(spec, *src);
            EXPECT_EQ(streamed.sim, mat.sim)
                << f << " chunk=" << chunk;
            EXPECT_EQ(streamed.storesPer100, mat.storesPer100) << f;
            EXPECT_EQ(streamed.l2Accesses, mat.l2Accesses) << f;
        }
        ++compared;
    }
    if (compared == 0)
        GTEST_SKIP() << "configs/ not reachable from test cwd";
}

TEST(RunnerStreaming, FileSourceMatchesInMemoryRun)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::tpcw();
    spec.warmupInsts = 10000;
    spec.measureInsts = 20000;

    Trace trace = Runner::buildTrace(spec);
    RunOutput mem = test::runMaterialized(spec, trace);

    std::string path = ::testing::TempDir() + "runner_file_src.trc";
    writeTraceFileV3(path, trace, "runner-file", /*compressed=*/true);
    {
        StreamingFileSource src(path, 777);
        RunOutput filed = Runner::run(spec, src);
        EXPECT_EQ(filed.sim, mem.sim);
    }
    std::remove(path.c_str());
}

/**
 * Pass-through source that logs every fetch: the chunk index asked for
 * and whether a chunk came back.
 */
class FetchLogSource : public TraceSource
{
  public:
    explicit FetchLogSource(std::unique_ptr<TraceSource> inner)
        : TraceSource(inner->chunkInsts()), _inner(std::move(inner))
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        std::shared_ptr<const TraceChunk> c = _inner->fetch(chunk_idx);
        log.push_back({chunk_idx, c != nullptr});
        return c;
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _inner->knownSize();
    }
    std::string fingerprint() const override
    {
        return _inner->fingerprint();
    }

    struct Fetch
    {
        uint64_t idx;
        bool hit;
    };
    std::vector<Fetch> log;

  private:
    std::unique_ptr<TraceSource> _inner;
};

/**
 * Check that a fetch log is a series of passes, each reading chunks
 * 0, 1, 2, ... exactly once, in order, covering all `chunks` chunks;
 * only one probe past the end may come back empty. Returns the
 * number of passes.
 */
int
countSinglePasses(const std::vector<FetchLogSource::Fetch> &log,
                  uint64_t chunks)
{
    int passes = 0;
    uint64_t next = 0;   // chunk the current pass must fetch next
    bool ended = false;  // the current pass probed past the end
    for (size_t i = 0; i < log.size(); ++i) {
        const FetchLogSource::Fetch &f = log[i];
        if (f.idx == 0) {
            EXPECT_TRUE(passes == 0 || next == chunks)
                << "pass " << passes << " ended at chunk " << next;
            ++passes;
            next = 0;
            ended = false;
        }
        EXPECT_FALSE(ended) << "fetch " << i << " after the end probe";
        if (f.hit) {
            EXPECT_EQ(f.idx, next) << "fetch " << i;
            ++next;
        } else {
            EXPECT_EQ(f.idx, chunks) << "fetch " << i;
            EXPECT_EQ(next, chunks) << "fetch " << i;
            ended = true;
        }
    }
    EXPECT_EQ(next, chunks) << "the last pass ended early";
    return passes;
}

TEST_F(FileSourceTest, RunnerReadsEachChunkOnce)
{
    // With SLE/TM off, the engine's own pass feeds the Table-1 tally:
    // every chunk is fetched once, in order, for every source kind.
    // SLE adds exactly one pass, the lock analysis.
    RunSpec spec;
    spec.profile = WorkloadProfile::specjbb();
    spec.config = SimConfig::pc2().withScout(ScoutMode::Hws2);
    spec.warmupInsts = 15000;
    spec.measureInsts = 25000;
    constexpr uint64_t kChunk = 4096;

    Trace trace = Runner::buildTrace(spec);
    std::string path = writeTemp("single_read", [&](std::ostream &os) {
        writeTraceV4(os, trace, "single-read", kChunk);
    });
    uint64_t chunks = (trace.size() + kChunk - 1) / kChunk;
    ASSERT_GT(chunks, 3u);
    RunOutput ref = test::runMaterialized(spec, trace);

    using Make = std::function<std::unique_ptr<TraceSource>()>;
    std::vector<std::pair<std::string, Make>> kinds = {
        {"generator", [&] { return Runner::makeSource(spec, kChunk); }},
        {"file",
         [&] { return std::make_unique<StreamingFileSource>(path, kChunk); }},
        {"materialized",
         [&] { return std::make_unique<MaterializedSource>(trace, kChunk); }},
    };
    for (bool sle : {false, true}) {
        RunSpec s = spec;
        s.config.sle = sle;
        RunOutput want = sle ? test::runMaterialized(s, trace) : ref;
        for (const auto &[name, make] : kinds) {
            FetchLogSource src(make());
            RunOutput out = Runner::run(s, src);
            EXPECT_EQ(out.sim, want.sim) << name << " sle=" << sle;
            EXPECT_EQ(out.storesPer100, want.storesPer100) << name;
            EXPECT_EQ(countSinglePasses(src.log, chunks), sle ? 2 : 1)
                << name << " sle=" << sle;
        }
    }
}

/** Table-1 store rate over records [warmup, end) of `trace`, counted
 *  the way the runner defines it. */
double
referenceStoresPer100(const Trace &trace, uint64_t warmup)
{
    MaterializedSource src(trace);
    uint64_t stores = 0;
    uint64_t measured =
        forEachRecord(src, warmup, ~uint64_t{0}, [&](const TraceRecord &r) {
            stores += isStoreClass(r.cls);
        });
    return measured ? 100.0 * static_cast<double>(stores) /
            static_cast<double>(measured)
                    : 0.0;
}

TEST(RunnerTally, MatchesReferenceCountAcrossChunkings)
{
    struct Case
    {
        const char *model;
        uint64_t warmup;
        uint64_t chunk;
    };
    // Warmup off a chunk boundary, one-record chunks, and a WC stream
    // whose rewrite expansion shifts every later index.
    for (const Case &c : {Case{"pc", 1500, 1000}, Case{"pc", 1500, 1},
                          Case{"wc", 1500, 1000}, Case{"wc", 2000, 1}}) {
        RunSpec spec;
        spec.profile = WorkloadProfile::database();
        spec.config.memoryModel = ModelDescriptor::parse(c.model);
        spec.warmupInsts = c.warmup;
        spec.measureInsts = 6000;

        Trace trace = Runner::buildTrace(spec);
        std::unique_ptr<TraceSource> src = Runner::makeSource(spec, c.chunk);
        RunOutput out = Runner::run(spec, *src);
        std::string what = std::string(c.model) + " warmup=" +
            std::to_string(c.warmup) + " chunk=" + std::to_string(c.chunk);
        EXPECT_EQ(out.storesPer100,
                  referenceStoresPer100(trace, c.warmup))
            << what;
        EXPECT_GT(out.storesPer100, 0.0) << what;
    }
}

TEST(RunnerTally, WarmupAtOrPastEndMeasuresNothing)
{
    Trace trace = makeTrace(3000);
    for (uint64_t warmup : {trace.size(), trace.size() + 2000}) {
        for (uint64_t chunk : {uint64_t{1}, uint64_t{1000}}) {
            RunSpec spec;
            spec.profile = WorkloadProfile::tpcw();
            spec.warmupInsts = warmup;
            MaterializedSource src(trace, chunk);
            RunOutput out = Runner::run(spec, src);
            EXPECT_EQ(out.sim.instructions, 0u);
            EXPECT_EQ(out.storesPer100, 0.0);
            EXPECT_EQ(out.storeMissPer100, 0.0);
            EXPECT_EQ(out.loadMissPer100, 0.0);
            EXPECT_EQ(out.instMissPer100, 0.0);
            EXPECT_EQ(out.tlbMissPer100, 0.0);
        }
    }
}

} // namespace
} // namespace storemlp
