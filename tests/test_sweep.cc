/**
 * @file
 * Tests for the parallel sweep engine and the shared trace cache:
 * bit-identical results across worker counts and chunk sizes (against
 * the materialized whole-trace run), chunk-cache hit behaviour for
 * repeated (profile, seed, length, rewrite) streams, and
 * submission-order result collection. Run lengths honour
 * STOREMLP_WARMUP / STOREMLP_MEASURE so CI can scale further down
 * (small defaults keep the suite fast without them).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "core/sweep.hh"
#include "util/parallel.hh"
#include "sim_test_util.hh"

namespace storemlp
{
namespace
{

uint64_t
envScaled(const char *name, uint64_t def)
{
    if (const char *env = std::getenv(name)) {
        uint64_t v = std::strtoull(env, nullptr, 10);
        if (v > 0)
            return std::min(v, def);
    }
    return def;
}

uint64_t
warmupInsts()
{
    return envScaled("STOREMLP_WARMUP", 30000);
}

uint64_t
measureInsts()
{
    return envScaled("STOREMLP_MEASURE", 50000);
}

/** A mixed PC/WC spec list exercising distinct configs per slot. */
std::vector<RunSpec>
mixedSpecs()
{
    const SimConfig configs[] = {SimConfig::defaults(),
                                 SimConfig::pc2(),
                                 SimConfig::pc3(),
                                 SimConfig::wc1(),
                                 SimConfig::wc2(),
                                 SimConfig::wc3()};
    std::vector<RunSpec> specs;
    for (const SimConfig &cfg : configs) {
        RunSpec spec;
        spec.profile = WorkloadProfile::testTiny();
        spec.config = cfg;
        spec.warmupInsts = warmupInsts();
        spec.measureInsts = measureInsts();
        specs.push_back(spec);
    }
    // A second prefetch mode over the same traces (cache sharing).
    for (const SimConfig &cfg : {configs[0], configs[3]}) {
        RunSpec spec;
        spec.profile = WorkloadProfile::testTiny();
        spec.config = cfg.withPrefetch(StorePrefetch::AtExecute);
        spec.warmupInsts = warmupInsts();
        spec.measureInsts = measureInsts();
        specs.push_back(spec);
    }
    return specs;
}

SweepEngine
makeEngine(TraceCache &cache, unsigned jobs, bool use_cache = true)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.useTraceCache = use_cache;
    opts.progress = false;
    return SweepEngine(opts, &cache);
}

/** Wrap bare specs as planned runs and execute them. */
std::vector<RunOutcome>
executeSpecs(SweepEngine &&engine, const std::vector<RunSpec> &specs)
{
    std::vector<PlannedRun> planned(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        planned[i].name = "spec" + std::to_string(i);
        planned[i].spec = specs[i];
    }
    return engine.execute(planned);
}

/** Every counter and distribution that run output carries. */
void
expectIdentical(const RunOutput &a, const RunOutput &b)
{
    const SimResult &x = a.sim;
    const SimResult &y = b.sim;
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.epochs, y.epochs);
    EXPECT_EQ(x.missLoads, y.missLoads);
    EXPECT_EQ(x.missStores, y.missStores);
    EXPECT_EQ(x.missInsts, y.missInsts);
    EXPECT_EQ(x.epochMisses, y.epochMisses);
    EXPECT_EQ(x.epochMissLoads, y.epochMissLoads);
    EXPECT_EQ(x.epochMissStores, y.epochMissStores);
    EXPECT_EQ(x.epochMissInsts, y.epochMissInsts);
    EXPECT_EQ(x.overlappedStores, y.overlappedStores);
    EXPECT_EQ(x.smacAcceleratedStores, y.smacAcceleratedStores);
    EXPECT_EQ(x.termCounts, y.termCounts);
    EXPECT_EQ(x.termCountsStoreEpochs, y.termCountsStoreEpochs);
    EXPECT_EQ(x.l2StoreAccesses, y.l2StoreAccesses);
    EXPECT_EQ(x.storePrefetchesIssued, y.storePrefetchesIssued);
    EXPECT_EQ(x.coalescedStores, y.coalescedStores);
    EXPECT_EQ(x.sqInserts, y.sqInserts);
    EXPECT_EQ(x.scoutEntries, y.scoutEntries);
    EXPECT_EQ(x.scoutPrefetches, y.scoutPrefetches);
    EXPECT_EQ(x.elidedLocks, y.elidedLocks);
    EXPECT_EQ(x.tmAborts, y.tmAborts);
    EXPECT_EQ(x.serializeStalls, y.serializeStalls);
    EXPECT_EQ(x.branchMispredicts, y.branchMispredicts);
    EXPECT_EQ(x.branches, y.branches);
    EXPECT_EQ(x.onChipCycles, y.onChipCycles); // exact double equality

    // Full printed report catches any metric missed above.
    std::ostringstream xa, yb;
    x.print(xa);
    y.print(yb);
    EXPECT_EQ(xa.str(), yb.str());

    EXPECT_EQ(a.storesPer100, b.storesPer100);
    EXPECT_EQ(a.storeMissPer100, b.storeMissPer100);
    EXPECT_EQ(a.loadMissPer100, b.loadMissPer100);
    EXPECT_EQ(a.instMissPer100, b.instMissPer100);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.tlbMissPer100, b.tlbMissPer100);
    EXPECT_EQ(a.chipStoreMisses, b.chipStoreMisses);
}

TEST(SweepEngine, Jobs1AndJobs4AreBitIdentical)
{
    std::vector<RunSpec> specs = mixedSpecs();

    TraceCache cache1, cache4;
    std::vector<RunOutcome> serial =
        executeSpecs(makeEngine(cache1, 1), specs);
    std::vector<RunOutcome> parallel =
        executeSpecs(makeEngine(cache4, 4), specs);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        expectIdentical(serial[i].output, parallel[i].output);
    }
}

TEST(SweepEngine, StreamingMatchesMaterializedAtAnyJobCount)
{
    // Every sweep run streams (chunked sources, shared chunk cache);
    // it must reproduce the materialized whole-trace run bit for bit,
    // serial and parallel alike — including an adversarial chunk size
    // that never divides the run length.
    std::vector<RunSpec> specs = mixedSpecs();
    std::vector<RunOutput> materialized;
    for (const RunSpec &spec : specs)
        materialized.push_back(test::runMaterialized(spec));

    for (unsigned jobs : {1u, 4u}) {
        for (uint64_t chunk : {uint64_t{0}, uint64_t{1021}}) {
            TraceCache cache;
            SweepOptions opts;
            opts.jobs = jobs;
            opts.progress = false;
            opts.chunkInsts = chunk;
            std::vector<RunOutcome> streamed =
                executeSpecs(SweepEngine(opts, &cache), specs);
            ASSERT_EQ(streamed.size(), specs.size());
            for (size_t i = 0; i < specs.size(); ++i) {
                SCOPED_TRACE("jobs " + std::to_string(jobs) +
                             " chunk " + std::to_string(chunk) +
                             " spec " + std::to_string(i));
                ASSERT_TRUE(streamed[i].ok)
                    << streamed[i].errorMessage;
                expectIdentical(materialized[i], streamed[i].output);
            }
            // Workers shared chunk production through the cache.
            EXPECT_GT(cache.stats().hits, 0u);
        }
    }
}

TEST(SweepEngine, CachedAndUncachedTracesAgree)
{
    std::vector<RunSpec> specs = mixedSpecs();
    TraceCache cache, unused;
    std::vector<RunOutcome> cached =
        executeSpecs(makeEngine(cache, 2), specs);
    std::vector<RunOutcome> uncached =
        executeSpecs(makeEngine(unused, 2, false), specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        expectIdentical(cached[i].output, uncached[i].output);
    }
}

TEST(SweepEngine, TraceCacheHitsForRepeatedKeys)
{
    // 8 specs over testTiny: 6 PC-or-WC base configs + 2 prefetch
    // variants -> exactly 2 distinct traces (PC and WC rewrite), so
    // the batch builds each chunk of those two streams once and
    // serves every other chunk lookup from the cache.
    std::vector<RunSpec> specs = mixedSpecs();
    TraceCacheStats pc, wc;
    uint64_t lookups = 0;
    for (const RunSpec &spec : specs) {
        TraceCache alone;
        executeSpecs(makeEngine(alone, 1), {spec});
        TraceCacheStats one = alone.stats();
        lookups += one.hits + one.misses;
        TraceCacheStats &trace =
            spec.config.memoryModel.wcTraceRewrite() ? wc : pc;
        if (trace.misses == 0)
            trace = one;
        EXPECT_EQ(one.misses, trace.misses); // same chunks per trace
    }
    ASSERT_GT(pc.misses, 0u);
    ASSERT_GT(wc.misses, 0u);

    TraceCache cache;
    executeSpecs(makeEngine(cache, 4), specs);
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, pc.misses + wc.misses);
    EXPECT_EQ(stats.hits + stats.misses, lookups);

    // A different seed is a different stream: its chunks all miss.
    RunSpec reseeded = specs[0];
    reseeded.seed = 1234;
    executeSpecs(makeEngine(cache, 1), {reseeded});
    EXPECT_EQ(cache.stats().misses, stats.misses + pc.misses);
}

TEST(SweepEngine, ResultsComeBackInSubmissionOrder)
{
    // Distinguishable specs: each measures a different instruction
    // count, so result slot i must report spec i's interval length.
    std::vector<RunSpec> specs;
    std::vector<uint64_t> expected;
    for (uint64_t k = 0; k < 8; ++k) {
        RunSpec spec;
        spec.profile = WorkloadProfile::testTiny();
        spec.config = SimConfig::defaults();
        spec.warmupInsts = 5000;
        spec.measureInsts = 10000 + k * 2000;
        specs.push_back(spec);
    }

    TraceCache cache;
    std::vector<RunOutcome> results =
        executeSpecs(makeEngine(cache, 4), specs);
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        // generateInto may overshoot the goal by a few records, so
        // compare against a serial reference run of the same spec.
        RunOutput ref = test::runMaterialized(specs[i]);
        SCOPED_TRACE("spec " + std::to_string(i));
        EXPECT_EQ(results[i].output.sim.instructions,
                  ref.sim.instructions);
        expectIdentical(results[i].output, ref);
    }
}

// Runs on the threads of a multi-worker pool must see that sibling
// workers fill the CPUs (openRunSource skips their read-ahead);
// a one-job pool runs its tasks on the caller and marks nothing.
TEST(ParallelForEach, MarksWorkerThreadsOnlyWithSeveralJobs)
{
    for (unsigned jobs : {1u, 3u}) {
        std::vector<int> marked(6, -1);
        std::vector<std::function<void()>> tasks;
        for (size_t i = 0; i < marked.size(); ++i)
            tasks.push_back([&marked, i] { marked[i] = onParallelWorker(); });
        parallelForEach(tasks, jobs);
        for (size_t i = 0; i < marked.size(); ++i)
            EXPECT_EQ(marked[i], jobs > 1 ? 1 : 0)
                << "jobs " << jobs << " task " << i;

        std::vector<RunSpec> specs = mixedSpecs();
        specs.resize(3);
        std::atomic<size_t> runs{0}, runs_marked{0};
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.runOverride = [&](const RunSpec &) {
            ++runs;
            if (onParallelWorker())
                ++runs_marked;
            return RunOutput{};
        };
        TraceCache cache;
        executeSpecs(SweepEngine(opts, &cache), specs);
        EXPECT_EQ(runs.load(), specs.size());
        EXPECT_EQ(runs_marked.load(), jobs > 1 ? specs.size() : 0)
            << "jobs " << jobs;
    }
    EXPECT_FALSE(onParallelWorker());
}

TEST(SweepEngine, PerRunTimingIsPopulated)
{
    std::vector<RunSpec> specs = mixedSpecs();
    specs.resize(2);
    TraceCache cache;
    std::vector<RunOutcome> results =
        executeSpecs(makeEngine(cache, 1), specs);
    for (const RunOutcome &r : results)
        EXPECT_GT(r.wallMs, 0.0);
}

TEST(TraceCache, ProfileFingerprintsAreDistinct)
{
    std::vector<WorkloadProfile> profiles =
        WorkloadProfile::allCommercial();
    profiles.push_back(WorkloadProfile::testTiny());
    for (size_t i = 0; i < profiles.size(); ++i)
        for (size_t j = i + 1; j < profiles.size(); ++j)
            EXPECT_NE(profiles[i].cacheKey(), profiles[j].cacheKey());

    // Any knob change must change the key (spot-check a few).
    WorkloadProfile base = WorkloadProfile::testTiny();
    WorkloadProfile mod = base;
    mod.loadColdProb += 1e-9;
    EXPECT_NE(base.cacheKey(), mod.cacheKey());
    mod = base;
    mod.lockCount += 1;
    EXPECT_NE(base.cacheKey(), mod.cacheKey());
    mod = base;
    mod.sharedLoadFrac += 0.01;
    EXPECT_NE(base.cacheKey(), mod.cacheKey());
}

TEST(TraceCache, EvictsLruWhenOverBudget)
{
    // Budget fits roughly one chunk of 4000 records.
    TraceCache cache(4000 * sizeof(TraceRecord) + 64);
    auto build = [](uint64_t first) {
        return [first] {
            return std::make_shared<const TraceChunk>(
                first, std::vector<TraceRecord>(4000));
        };
    };
    cache.getOrBuildChunk("a", build(1));
    auto kept = cache.getOrBuildChunk("b", build(2));
    TraceCacheStats stats = cache.stats();
    EXPECT_GE(stats.evictions, 1u);

    // "b" (most recent) survives; "a" rebuilds on next access.
    bool hit = true;
    EXPECT_EQ(cache.getOrBuildChunk("b", build(2), &hit), kept);
    EXPECT_TRUE(hit);
    cache.getOrBuildChunk("a", build(1), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(kept->count, 4000u);
}

TEST(Runner, TraceOverloadMatchesSelfBuiltTrace)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::wc1(); // exercises the rewrite path
    spec.warmupInsts = warmupInsts();
    spec.measureInsts = measureInsts();

    RunOutput a = test::runMaterialized(spec);
    Trace trace = test::wholeTrace(spec);
    RunOutput b = test::runMaterialized(spec, trace);
    expectIdentical(a, b);
}

TEST(Runner, TraceCacheKeySeparatesRewriteAndLength)
{
    // A run's stream fingerprint (the base of its chunk-cache keys)
    // names everything that determines the records and nothing else.
    auto fp = [](const RunSpec &spec) {
        return test::openRun(spec)->fingerprint();
    };
    RunSpec pc;
    pc.profile = WorkloadProfile::testTiny();
    pc.config = SimConfig::defaults();
    RunSpec wc = pc;
    wc.config = SimConfig::wc1();
    EXPECT_NE(fp(pc), fp(wc));

    RunSpec longer = pc;
    longer.measureInsts += 1;
    EXPECT_NE(fp(pc), fp(longer));

    // Machine-only differences share a trace.
    RunSpec resized = pc;
    resized.config.storeQueueSize = 256;
    resized.numChips = 2;
    resized.smac = SmacConfig{};
    EXPECT_EQ(fp(pc), fp(resized));
}

} // namespace
} // namespace storemlp
