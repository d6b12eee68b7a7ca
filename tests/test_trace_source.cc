/**
 * @file
 * Streaming trace pipeline tests: every TraceSource must be
 * indistinguishable from the materialized trace it streams — same
 * records for every chunk size (including pathological ones), same
 * lock analysis, same WC rewrite, and bit-identical SimResults end to
 * end. Chunking is an execution strategy, never a model input.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config_io.hh"
#include "core/runner.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "util/error.hh"
#include "util/parallel.hh"
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
    // The batch reference sees the whole trace as one chunk; lock
    // idioms straddling chunk boundaries must not change the result.
    Trace trace = makeTrace(20000, 11);
    MaterializedSource whole(trace, trace.size());
    LockAnalysis batch = LockDetector().analyze(whole);

    for (uint64_t chunk : {uint64_t{1}, uint64_t{193}, uint64_t{4096}}) {
        MaterializedSource src(trace, chunk);
        LockAnalysis streamed = LockDetector().analyze(src);
        ASSERT_EQ(streamed.roles.size(), batch.roles.size());
        for (size_t i = 0; i < batch.roles.size(); ++i)
            EXPECT_EQ(streamed.roles[i], batch.roles[i]) << "role " << i;
        ASSERT_EQ(streamed.pairs.size(), batch.pairs.size());
        for (size_t i = 0; i < batch.pairs.size(); ++i) {
            EXPECT_EQ(streamed.pairs[i].acquireIdx,
                      batch.pairs[i].acquireIdx);
            EXPECT_EQ(streamed.pairs[i].releaseIdx,
                      batch.pairs[i].releaseIdx);
            EXPECT_EQ(streamed.pairs[i].lockAddr,
                      batch.pairs[i].lockAddr);
        }
    }
}

TEST(WcRewriteSource, MatchesBatchRewriteAcrossChunkSizes)
{
    // Lock idioms that straddle a chunk boundary are the hard case:
    // the carry state (detector window + pending output) must splice
    // the expansion exactly where the batch rewriter puts it.
    Trace trace = makeTrace(20000, 13);
    LockAnalysis locks = test::analyzeTrace(trace);
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
              const std::function<void(const std::string &)> &writer)
    {
        std::string path =
            ::testing::TempDir() + "trace_source_" + name + ".trc";
        writer(path);
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

TEST_F(FileSourceTest, StreamsV1V4Identically)
{
    Trace ref = makeTrace(6000, 17);
    std::string v1 = writeTemp(
        "v1", [&](auto &p) { writeTraceFile(p, ref); });
    std::string v4 = writeTemp("v4", [&](auto &p) {
        writeTraceFileV4(p, ref, "fp-test", 509);
    });

    for (const std::string &path : {v1, v4}) {
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
    // The v4 body is delta-encoded within each chunk; random chunk
    // access goes through the index seeds and must still decode exact
    // records in any visit order.
    Trace ref = makeTrace(4000, 19);
    std::string path = writeTemp("rand", [&](auto &p) {
        writeTraceFileV4(p, ref, "", 256);
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
    std::string path = writeTemp("probe", [&](auto &p) {
        writeTraceFileV4(p, ref, "probe-fingerprint");
    });
    TraceFileInfo info = probeTraceFile(path);
    EXPECT_EQ(info.version, 4u);
    EXPECT_EQ(info.bodyFormat, 3u);
    EXPECT_EQ(info.records, ref.size());
    EXPECT_EQ(info.fingerprint, "probe-fingerprint");
    EXPECT_GT(info.fileBytes, 0u);

    StreamingFileSource src(path);
    EXPECT_EQ(src.fingerprint(), "probe-fingerprint");
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
            std::unique_ptr<TraceSource> src = test::openRun(spec, chunk);
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

    Trace trace = test::wholeTrace(spec);
    RunOutput mem = test::runMaterialized(spec, trace);

    std::string path = ::testing::TempDir() + "runner_file_src.trc";
    writeTraceFileV4(path, trace, "runner-file", 777);
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

    Trace trace = test::wholeTrace(spec);
    std::string path = writeTemp("single_read", [&](auto &p) {
        writeTraceFileV4(p, trace, "single-read", kChunk);
    });
    uint64_t chunks = (trace.size() + kChunk - 1) / kChunk;
    ASSERT_GT(chunks, 3u);
    RunOutput ref = test::runMaterialized(spec, trace);

    using Make = std::function<std::unique_ptr<TraceSource>()>;
    std::vector<std::pair<std::string, Make>> kinds = {
        {"generator", [&] { return test::openRun(spec, kChunk); }},
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

        Trace trace = test::wholeTrace(spec);
        std::unique_ptr<TraceSource> src = test::openRun(spec, c.chunk);
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


// ---------------------------------------------------------------------
// ReadAheadSource: a one-chunk read-ahead on a helper thread
// ---------------------------------------------------------------------

/** Generator stream, optionally WC-rewritten, as the tools compose it. */
std::unique_ptr<TraceSource>
pipelineStream(bool wc, uint64_t n, uint64_t chunk)
{
    std::unique_ptr<TraceSource> src = std::make_unique<GeneratorSource>(
        WorkloadProfile::database(), 7, n, 0, chunk);
    if (wc)
        src = std::make_unique<WcRewriteSource>(std::move(src));
    return src;
}

/** The spec's stream without the read-ahead, as a pool worker gets it. */
std::unique_ptr<TraceSource>
unpipelinedStream(const RunSpec &spec, uint64_t chunk)
{
    ParallelWorkerScope worker;
    return test::openRun(spec, chunk);
}

void
expectSameChunk(const TraceChunk &a, const TraceChunk &b,
                const std::string &what)
{
    ASSERT_EQ(a.firstIdx, b.firstIdx) << what;
    ASSERT_EQ(a.count, b.count) << what;
    TraceChunk::LaneRefs la = a.lanes();
    TraceChunk::LaneRefs lb = b.lanes();
    for (uint64_t i = 0; i < a.count; ++i) {
        ASSERT_TRUE(sameRec(a.data[i], b.data[i])) << what << " rec " << i;
        ASSERT_EQ(la.pc[i], lb.pc[i]) << what << " lane " << i;
        ASSERT_EQ(la.addr[i], lb.addr[i]) << what << " lane " << i;
        ASSERT_EQ(la.cls[i], lb.cls[i]) << what << " lane " << i;
        ASSERT_EQ(la.meta[i], lb.meta[i]) << what << " lane " << i;
    }
}

TEST(ReadAheadSource, ChunkForChunkIdenticalToBareSource)
{
    struct Case
    {
        uint64_t chunk;
        uint64_t records;
    };
    // Each length spans several chunks and ends in a partial one.
    for (const Case &c : {Case{1, 3000}, Case{1000, 25000},
                          Case{uint64_t{1} << 16, 150000}}) {
        for (bool wc : {false, true}) {
            std::string what = std::string(wc ? "wc" : "pc") +
                " chunk=" + std::to_string(c.chunk);
            std::unique_ptr<TraceSource> bare =
                pipelineStream(wc, c.records, c.chunk);
            ReadAheadSource ahead(pipelineStream(wc, c.records, c.chunk));
            EXPECT_EQ(ahead.chunkInsts(), bare->chunkInsts());
            EXPECT_EQ(ahead.fingerprint(), bare->fingerprint());
            uint64_t k = 0;
            for (;; ++k) {
                std::shared_ptr<const TraceChunk> want = bare->fetch(k);
                std::shared_ptr<const TraceChunk> got = ahead.fetch(k);
                ASSERT_EQ(got == nullptr, want == nullptr)
                    << what << " chunk " << k;
                if (!want)
                    break;
                expectSameChunk(*got, *want,
                                what + " chunk " + std::to_string(k));
            }
            EXPECT_GE(k, 2u) << what;
            EXPECT_EQ(ahead.knownSize(), bare->knownSize()) << what;
        }
    }
}

TEST(ReadAheadSource, InnerSeesInOrderFetchesAndOneChunkAhead)
{
    constexpr uint64_t kChunk = 500;
    auto log_src = std::make_unique<FetchLogSource>(
        pipelineStream(false, 20 * kChunk, kChunk));
    FetchLogSource &log = *log_src;
    ReadAheadSource ahead(std::move(log_src));

    // Consume a prefix only: the inner source may run at most one
    // chunk past the consumer, never more.
    for (uint64_t k = 0; k < 6; ++k)
        ASSERT_NE(ahead.fetch(k), nullptr);
    ahead.knownSize(); // collects the fetch in flight
    ASSERT_EQ(log.log.size(), 7u);
    for (uint64_t k = 0; k < 7; ++k) {
        EXPECT_EQ(log.log[k].idx, k);
        EXPECT_TRUE(log.log[k].hit);
    }

    // Reading on to the end is still one in-order pass, with at most
    // one empty probe past the last chunk.
    uint64_t k = 6;
    while (ahead.fetch(k))
        ++k;
    ahead.knownSize();
    EXPECT_EQ(countSinglePasses(log.log, k), 1);
}

TEST(ReadAheadSource, RunsBitIdenticalAndReadsEachChunkOnce)
{
    constexpr uint64_t kChunk = 4096;
    for (const SimConfig &cfg :
         {SimConfig::pc2().withScout(ScoutMode::Hws2), SimConfig::wc2()}) {
        for (bool sle : {false, true}) {
            RunSpec spec;
            spec.profile = WorkloadProfile::specjbb();
            spec.config = cfg;
            spec.config.sle = sle;
            spec.warmupInsts = 15000;
            spec.measureInsts = 25000;
            Trace trace = test::wholeTrace(spec);
            RunOutput want = test::runMaterialized(spec, trace);

            auto log_src = std::make_unique<FetchLogSource>(
                unpipelinedStream(spec, kChunk));
            FetchLogSource &log = *log_src;
            ReadAheadSource ahead(std::move(log_src));
            RunOutput got = Runner::run(spec, ahead);
            EXPECT_EQ(got.sim, want.sim) << cfg.name << " sle=" << sle;
            EXPECT_EQ(got.storesPer100, want.storesPer100) << cfg.name;
            // SLE adds exactly one pass, the lock analysis.
            ahead.knownSize();
            uint64_t chunks = (trace.size() + kChunk - 1) / kChunk;
            EXPECT_EQ(countSinglePasses(log.log, chunks), sle ? 2 : 1)
                << cfg.name << " sle=" << sle;
        }
    }
}

TEST(ReadAheadSource, BackwardFetchWhileInFlightReplays)
{
    constexpr uint64_t kChunk = 700;
    constexpr uint64_t kRecords = 10 * kChunk;
    for (bool wc : {false, true}) {
        std::unique_ptr<TraceSource> bare =
            pipelineStream(wc, kRecords, kChunk);
        auto log_src = std::make_unique<FetchLogSource>(
            pipelineStream(wc, kRecords, kChunk));
        FetchLogSource &log = *log_src;
        ReadAheadSource ahead(std::move(log_src));

        for (uint64_t k : {0, 1, 2, 0, 1, 5, 3}) {
            std::string what = std::string(wc ? "wc" : "pc") +
                " chunk " + std::to_string(k);
            std::shared_ptr<const TraceChunk> want = bare->fetch(k);
            std::shared_ptr<const TraceChunk> got = ahead.fetch(k);
            ASSERT_NE(want, nullptr) << what;
            ASSERT_NE(got, nullptr) << what;
            expectSameChunk(*got, *want, what);
        }
        ahead.knownSize();
        // Every consumer fetch reaches the inner source, each followed
        // by its one-ahead; a miss collects the fetch in flight first.
        std::vector<uint64_t> idx;
        for (const FetchLogSource::Fetch &f : log.log)
            idx.push_back(f.idx);
        EXPECT_EQ(idx, (std::vector<uint64_t>{0, 1, 2, 3, 0, 1, 2, 5, 6,
                                              3, 4}));
    }
}

/** Pass-through that counts inner fetches, readable from any thread. */
class CountingSource : public TraceSource
{
  public:
    explicit CountingSource(std::unique_ptr<TraceSource> inner,
                            std::atomic<int> &fetches)
        : TraceSource(inner->chunkInsts()), _inner(std::move(inner)),
          _fetches(fetches)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        ++_fetches;
        return _inner->fetch(chunk_idx);
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _inner->knownSize();
    }

  private:
    std::unique_ptr<TraceSource> _inner;
    std::atomic<int> &_fetches;
};

TEST(ReadAheadSource, ReadsAheadOnlyOnceTheConsumerLetsGo)
{
    // Memory stays at the unpipelined peak: while the consumer holds
    // two chunks, the helper must not fill a third.
    std::atomic<int> fetches{0};
    ReadAheadSource ahead(std::make_unique<CountingSource>(
        pipelineStream(false, 10 * 500, 500), fetches));
    auto waitFor = [&](int n) {
        auto until = std::chrono::steady_clock::now() +
            std::chrono::seconds(10);
        while (fetches.load() < n &&
               std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return fetches.load();
    };

    std::shared_ptr<const TraceChunk> c0 = ahead.fetch(0);
    EXPECT_EQ(waitFor(2), 2); // holding one chunk: chunk 1 is read
    std::shared_ptr<const TraceChunk> c1 = ahead.fetch(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(fetches.load(), 2); // holding two: no read-ahead yet
    c0.reset();
    EXPECT_EQ(waitFor(3), 3); // chunk 0 released: chunk 2 is read

    // A consumer that keeps every chunk still gets each one: asking
    // for the pending chunk starts its read.
    std::vector<std::shared_ptr<const TraceChunk>> kept{c1};
    for (uint64_t k = 2; k < 10; ++k) {
        kept.push_back(ahead.fetch(k));
        ASSERT_NE(kept.back(), nullptr);
        EXPECT_EQ(kept.back()->firstIdx, k * 500);
    }
}

/** Throws `E` from fetch(`bad`); otherwise generates `chunks` chunks. */
template <typename E>
class ThrowingSource : public TraceSource
{
  public:
    ThrowingSource(uint64_t chunk, uint64_t bad)
        : TraceSource(chunk), _inner(WorkloadProfile::tpcw(), 3,
                                     20 * chunk, 0, chunk),
          _bad(bad)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        if (chunk_idx == _bad)
            throw E("chunk " + std::to_string(chunk_idx) + " is bad");
        return _inner.fetch(chunk_idx);
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _inner.knownSize();
    }

  private:
    GeneratorSource _inner;
    uint64_t _bad;
};

TEST(ReadAheadSource, HelperExceptionRethrownFromThatFetch)
{
    {
        ReadAheadSource ahead(
            std::make_unique<ThrowingSource<TraceFormatError>>(256, 3));
        for (uint64_t k = 0; k < 3; ++k)
            ASSERT_NE(ahead.fetch(k), nullptr);
        EXPECT_THROW(ahead.fetch(3), TraceFormatError);
        // The error is not sticky: a later fetch forwards again.
        EXPECT_NE(ahead.fetch(1), nullptr);
        EXPECT_THROW(ahead.fetch(3), TraceFormatError);
    }
    {
        // Not SimError: the tools map it to exit 70, so the type must
        // survive the thread hop too.
        ReadAheadSource ahead(
            std::make_unique<ThrowingSource<std::logic_error>>(256, 1));
        ASSERT_NE(ahead.fetch(0), nullptr);
        EXPECT_THROW(ahead.fetch(1), std::logic_error);
    }
    {
        // An error on a chunk the consumer never asks for stays silent.
        ReadAheadSource ahead(
            std::make_unique<ThrowingSource<TraceFormatError>>(256, 1));
        ASSERT_NE(ahead.fetch(0), nullptr);
        EXPECT_NE(ahead.fetch(0), nullptr);
    }
}

/** Inner source whose every fetch takes `delay`. */
class SlowSource : public TraceSource
{
  public:
    SlowSource(uint64_t chunk, std::chrono::milliseconds delay)
        : TraceSource(chunk),
          _inner(WorkloadProfile::tpcw(), 3, 1000 * chunk, 0, chunk),
          _delay(delay)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        std::this_thread::sleep_for(_delay);
        return _inner.fetch(chunk_idx);
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _inner.knownSize();
    }

  private:
    GeneratorSource _inner;
    std::chrono::milliseconds _delay;
};

/** Pass-through that throws, as a failing engine would, on `bad`. */
class FailAtSource : public TraceSource
{
  public:
    FailAtSource(TraceSource &inner, uint64_t bad)
        : TraceSource(inner.chunkInsts()), _inner(inner), _bad(bad)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        if (chunk_idx == _bad)
            throw SimError("engine failed at chunk " +
                           std::to_string(chunk_idx));
        return _inner.fetch(chunk_idx);
    }
    std::optional<uint64_t> knownSize() const override
    {
        return std::nullopt;
    }

  private:
    TraceSource &_inner;
    uint64_t _bad;
};

TEST(ReadAheadSource, DestructionMidStreamIsPrompt)
{
    using Clock = std::chrono::steady_clock;
    constexpr auto kDelay = std::chrono::milliseconds(50);
    // Destroyed with a fetch in flight: waits for that one fetch only.
    for (int consumed : {0, 1, 3}) {
        auto t0 = Clock::now();
        {
            ReadAheadSource ahead(std::make_unique<SlowSource>(64, kDelay));
            for (int k = 0; k < consumed; ++k)
                ASSERT_NE(ahead.fetch(static_cast<uint64_t>(k)), nullptr);
        }
        EXPECT_LT(Clock::now() - t0, (consumed + 20) * kDelay)
            << "consumed=" << consumed;
    }

    // The engine throws mid-run with a read-ahead in flight; unwinding
    // the run destroys the source without hanging.
    RunSpec spec;
    spec.profile = WorkloadProfile::tpcw();
    spec.warmupInsts = 5000;
    spec.measureInsts = 20000;
    auto t0 = Clock::now();
    {
        ReadAheadSource ahead(unpipelinedStream(spec, 1000));
        FailAtSource failing(ahead, 7);
        EXPECT_THROW(Runner::run(spec, failing), SimError);
    }
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(10));
}

// ---------------------------------------------------------------------
// openRunSource: the one composition of a run's stream
// ---------------------------------------------------------------------

/** The stages of a composed stream, outermost first. */
std::vector<std::string>
stageNames(const TraceSource &src)
{
    std::vector<std::string> names;
    for (const TraceSource *s = &src; s; s = s->inner()) {
        if (dynamic_cast<const ReadAheadSource *>(s))
            names.push_back("readahead");
        else if (dynamic_cast<const WcRewriteSource *>(s))
            names.push_back("wc");
        else if (dynamic_cast<const GeneratorSource *>(s))
            names.push_back("generator");
        else if (dynamic_cast<const StreamingFileSource *>(s))
            names.push_back("file");
        else
            names.push_back("?");
    }
    return names;
}

using OpenRunSource = FileSourceTest;

TEST_F(OpenRunSource, StagesPerInput)
{
    constexpr uint64_t kChunk = 1000;
    RunSpec pc;
    pc.profile = WorkloadProfile::tpcw();
    pc.warmupInsts = 1000;
    pc.measureInsts = 3000;
    RunSpec wc = pc;
    wc.config = SimConfig::wc2();

    Trace trace = test::wholeTrace(pc);
    std::string v1 = writeTemp(
        "stages_v1", [&](auto &p) { writeTraceFile(p, trace); });
    std::string v4 = writeTemp("stages_v4", [&](auto &p) {
        writeTraceFileV4(p, trace, "stages", kChunk);
    });
    auto generated = [&](const RunSpec &spec) {
        return SourceSpec::forRun(spec, kChunk);
    };
    auto file = [&](const RunSpec &spec, const std::string &path) {
        SourceSpec s = generated(spec);
        s.tracePath = path;
        return s;
    };
    struct Case
    {
        const char *what;
        SourceSpec spec;
        bool onWorker;
        std::vector<std::string> stages;
    };
    const Case cases[] = {
        {"generated pc", generated(pc), false, {"readahead", "generator"}},
        {"generated wc", generated(wc), false,
         {"readahead", "wc", "generator"}},
        {"v1 file", file(pc, v1), false, {"readahead", "file"}},
        {"v4 file", file(pc, v4), false, {"readahead", "file"}},
        // Files replay as written: a WC model adds no rewrite.
        {"v4 file, wc model", file(wc, v4), false, {"readahead", "file"}},
        {"pool worker, generated", generated(wc), true, {"wc", "generator"}},
        {"pool worker, file", file(pc, v4), true, {"file"}},
    };
    for (const Case &c : cases) {
        std::optional<ParallelWorkerScope> worker;
        if (c.onWorker)
            worker.emplace();
        std::unique_ptr<TraceSource> src = openRunSource(c.spec);
        EXPECT_EQ(stageNames(*src), c.stages) << c.what;
        EXPECT_EQ(src->chunkInsts(), kChunk) << c.what;
    }

    // A stream's fingerprint names everything that determines its
    // records, through every stage.
    EXPECT_EQ(openRunSource(generated(wc))->fingerprint(),
              wc.profile.cacheKey() + "|seed=42|n=4000|wc=1|chip=0");
}

/** The shipped configs reachable from the test cwd, by file name. */
std::vector<std::pair<std::string, SimConfig>>
shippedConfigs()
{
    namespace fs = std::filesystem;
    std::vector<std::pair<std::string, SimConfig>> out;
    for (const char *dir : {"configs", "../configs", "../../configs"}) {
        std::error_code ec;
        if (!fs::is_directory(dir, ec))
            continue;
        for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
            if (e.path().extension() == ".cfg") {
                out.emplace_back(e.path().stem().string(),
                                 loadSimConfigFile(e.path().string()));
            }
        }
        break;
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

void
expectSameRun(const RunOutput &got, const RunOutput &want,
              const std::string &what)
{
    EXPECT_EQ(got.sim, want.sim) << what;
    EXPECT_EQ(got.storesPer100, want.storesPer100) << what;
    EXPECT_EQ(got.storeMissPer100, want.storeMissPer100) << what;
    EXPECT_EQ(got.loadMissPer100, want.loadMissPer100) << what;
    EXPECT_EQ(got.l2Accesses, want.l2Accesses) << what;
    EXPECT_EQ(got.tlbMissPer100, want.tlbMissPer100) << what;
}

TEST_F(OpenRunSource, FileRunsBitIdenticalToBareFile)
{
    constexpr uint64_t kChunk = 4096;
    std::vector<std::pair<std::string, SimConfig>> configs =
        shippedConfigs();
    if (configs.empty())
        GTEST_SKIP() << "configs/ not reachable from test cwd";
    // No shipped config turns TM on; its lock analysis is the other
    // pre-pass the pipelined file stream must survive.
    SimConfig tm = SimConfig::pc2();
    tm.tm.enabled = true;
    configs.emplace_back("pc2+tm", tm);

    for (const auto &[name, cfg] : configs) {
        RunSpec spec;
        spec.profile = WorkloadProfile::specjbb();
        spec.config = cfg;
        spec.warmupInsts = 8000;
        spec.measureInsts = 20000;
        Trace full = test::wholeTrace(spec);
        // Whole chunks only, then a short last chunk.
        for (uint64_t n : {6 * kChunk, 6 * kChunk + 123}) {
            ASSERT_GE(full.size(), n) << name;
            Trace trace(std::vector<TraceRecord>(
                full.records().begin(),
                full.records().begin() + static_cast<ptrdiff_t>(n)));
            std::string tag = name + "_" + std::to_string(n);
            std::string v1 = writeTemp("bare_v1_" + tag, [&](auto &p) {
                writeTraceFile(p, trace);
            });
            std::string v4 = writeTemp("bare_v4_" + tag, [&](auto &p) {
                writeTraceFileV4(p, trace, "bare-" + tag, kChunk);
            });
            for (const std::string &path : {v1, v4}) {
                std::string what = path + " " + name;
                StreamingFileSource bare(path, kChunk);
                RunOutput want = Runner::run(spec, bare);
                SourceSpec s = SourceSpec::forRun(spec, kChunk);
                s.tracePath = path;
                std::unique_ptr<TraceSource> piped = openRunSource(s);
                ASSERT_NE(dynamic_cast<ReadAheadSource *>(piped.get()),
                          nullptr) << what;
                expectSameRun(Runner::run(spec, *piped), want, what);
            }
        }
    }
}

/** What the two ends of one read-ahead stream have asked for. */
struct AheadProbe
{
    std::mutex mu;
    uint64_t last = 0; ///< the consumer's latest request
    uint64_t prev = 0; ///< and the one before it
    std::vector<int64_t> leads; ///< per inner fetch: index - consumer's
};

/** Consumer side: notes each request before passing it on. */
class AskSource : public TraceSource
{
  public:
    AskSource(TraceSource &inner, AheadProbe &probe)
        : TraceSource(inner.chunkInsts()), _inner(inner), _probe(probe)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        {
            std::lock_guard<std::mutex> lk(_probe.mu);
            _probe.prev = _probe.last;
            _probe.last = chunk_idx;
        }
        return _inner.fetch(chunk_idx);
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _inner.knownSize();
    }

  private:
    TraceSource &_inner;
    AheadProbe &_probe;
};

/**
 * Inner side: logs each fetch and how far past the consumer it is.
 * A read-ahead started before the consumer's latest request may land
 * after it, so the lead is taken from the later of the consumer's two
 * latest requests.
 */
class LeadLogSource : public FetchLogSource
{
  public:
    LeadLogSource(std::unique_ptr<TraceSource> inner, AheadProbe &probe)
        : FetchLogSource(std::move(inner)), _probe(probe)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        {
            std::lock_guard<std::mutex> lk(_probe.mu);
            _probe.leads.push_back(static_cast<int64_t>(chunk_idx) -
                static_cast<int64_t>(std::max(_probe.last, _probe.prev)));
        }
        return FetchLogSource::fetch(chunk_idx);
    }

  private:
    AheadProbe &_probe;
};

TEST_F(OpenRunSource, SleFileRunIsAnalysisThenOnePass)
{
    // With SLE on, the lock analysis reads the file once; the engine
    // then refetches chunk 0 once and reads the file again, in order.
    constexpr uint64_t kChunk = 4096;
    RunSpec spec;
    spec.profile = WorkloadProfile::specjbb();
    spec.config = SimConfig::wc2();
    spec.config.sle = true;
    spec.warmupInsts = 10000;
    spec.measureInsts = 20000;
    Trace trace = test::wholeTrace(spec);
    std::string path = writeTemp("sle_v4", [&](auto &p) {
        writeTraceFileV4(p, trace, "sle", kChunk);
    });
    uint64_t chunks = (trace.size() + kChunk - 1) / kChunk;
    ASSERT_GT(chunks, 3u);

    StreamingFileSource bare(path);
    RunOutput want = Runner::run(spec, bare);

    AheadProbe probe;
    auto log_src = std::make_unique<LeadLogSource>(
        std::make_unique<StreamingFileSource>(path), probe);
    LeadLogSource &log = *log_src;
    ReadAheadSource ahead(std::move(log_src));
    AskSource consumer(ahead, probe);
    expectSameRun(Runner::run(spec, consumer), want, "sle v4");
    ahead.knownSize(); // collects the fetch in flight

    EXPECT_EQ(countSinglePasses(log.log, chunks), 2);
    int backward = 0;
    for (size_t i = 1; i < log.log.size(); ++i)
        backward += log.log[i].idx < log.log[i - 1].idx;
    EXPECT_EQ(backward, 1);
    ASSERT_EQ(probe.leads.size(), log.log.size());
    for (size_t i = 0; i < probe.leads.size(); ++i)
        EXPECT_LE(probe.leads[i], 1) << "inner fetch " << i;
}

} // namespace
} // namespace storemlp
