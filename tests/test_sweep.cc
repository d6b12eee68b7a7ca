/**
 * @file
 * Tests for the parallel sweep engine and its trace-major execution:
 * bit-identical results across worker counts and chunk sizes (against
 * the materialized whole-trace run and against each run alone), one
 * production per distinct (profile, seed, length, rewrite) stream,
 * per-member fault containment, group splitting, and submission-order
 * result collection. Run lengths honour STOREMLP_WARMUP /
 * STOREMLP_MEASURE so CI can scale further down (small defaults keep
 * the suite fast without them).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "core/sweep.hh"
#include "trace/lock_detector.hh"
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
    // A second prefetch mode over the same traces (group sharing).
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
makeEngine(unsigned jobs, uint64_t chunk_insts = 0)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.chunkInsts = chunk_insts;
    opts.progress = false;
    return SweepEngine(opts);
}

/** Wrap bare specs as planned runs and execute them. */
std::vector<RunOutcome>
executeSpecs(SweepEngine &engine, const std::vector<RunSpec> &specs)
{
    std::vector<PlannedRun> planned(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        planned[i].name = "spec" + std::to_string(i);
        planned[i].spec = specs[i];
    }
    return engine.execute(planned);
}

std::vector<RunOutcome>
executeSpecs(SweepEngine &&engine, const std::vector<RunSpec> &specs)
{
    return executeSpecs(engine, specs);
}

/** The spec run alone: its own stream, one Runner::run. */
RunOutput
runAlone(const RunSpec &spec, uint64_t chunk_insts = 0)
{
    return Runner::run(spec, *test::openRun(spec, chunk_insts));
}

/** Records in the spec's stream. */
uint64_t
streamLength(const RunSpec &spec)
{
    return materializeSource(*test::openRun(spec)).size();
}

/**
 * PC and WC streams of testTiny, each read by plain, SLE, TM and
 * scout members: two trace groups of four.
 */
std::vector<RunSpec>
lockMixSpecs()
{
    std::vector<RunSpec> specs;
    for (const SimConfig &base : {SimConfig::defaults(), SimConfig::wc1()}) {
        SimConfig sle = base;
        sle.sle = true;
        SimConfig tm = base;
        tm.tm.enabled = true;
        for (const SimConfig &cfg :
             {base, sle, tm, base.withScout(ScoutMode::Hws2)}) {
            RunSpec spec;
            spec.profile = WorkloadProfile::testTiny();
            spec.config = cfg;
            spec.warmupInsts = warmupInsts();
            spec.measureInsts = measureInsts();
            specs.push_back(spec);
        }
    }
    return specs;
}

/**
 * An epoch-log sink that throws while `*faults` is positive (counting
 * it down once per throw) and discards output otherwise: a run that
 * fails mid-stream, at its first measured epoch.
 */
class FaultingSink : public std::streambuf
{
  public:
    explicit FaultingSink(std::shared_ptr<std::atomic<int>> faults)
        : _faults(std::move(faults))
    {
    }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (_faults->fetch_sub(1) > 0)
            throw std::runtime_error("epoch sink fault");
        return ch;
    }

  private:
    std::shared_ptr<std::atomic<int>> _faults;
};

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

    std::vector<RunOutcome> serial = executeSpecs(makeEngine(1), specs);
    std::vector<RunOutcome> parallel = executeSpecs(makeEngine(4), specs);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        expectIdentical(serial[i].output, parallel[i].output);
    }
}

TEST(SweepEngine, StreamingMatchesMaterializedAtAnyJobCount)
{
    // Every sweep run streams (chunks fanned out to its trace group);
    // it must reproduce the materialized whole-trace run bit for bit,
    // serial and parallel alike — including an adversarial chunk size
    // that never divides the run length.
    std::vector<RunSpec> specs = mixedSpecs();
    std::vector<RunOutput> materialized;
    for (const RunSpec &spec : specs)
        materialized.push_back(test::runMaterialized(spec));

    for (unsigned jobs : {1u, 4u}) {
        for (uint64_t chunk : {uint64_t{0}, uint64_t{1021}}) {
            std::vector<RunOutcome> streamed =
                executeSpecs(makeEngine(jobs, chunk), specs);
            ASSERT_EQ(streamed.size(), specs.size());
            for (size_t i = 0; i < specs.size(); ++i) {
                SCOPED_TRACE("jobs " + std::to_string(jobs) +
                             " chunk " + std::to_string(chunk) +
                             " spec " + std::to_string(i));
                ASSERT_TRUE(streamed[i].ok)
                    << streamed[i].errorMessage;
                expectIdentical(materialized[i], streamed[i].output);
            }
        }
    }
}

TEST(SweepEngine, TraceMajorMatchesEachRunAlone)
{
    // PC, WC, SLE, TM and scout members share their stream's group
    // (SLE/TM members share one lock analysis, built as the chunks are
    // made). Every outcome must equal its spec run alone, serial and
    // split over workers, at the default chunk size, at one small
    // enough that the scout's lookahead crosses chunk boundaries, and
    // at one shorter than the lock detector's window that divides
    // window + 1: production then stops exactly where the builder
    // first covers a chunk, with no slack for a short lead to hide in.
    std::vector<RunSpec> specs = lockMixSpecs();
    for (uint64_t chunk : {uint64_t{0}, uint64_t{4096}, uint64_t{171}}) {
        std::vector<RunOutput> alone;
        for (const RunSpec &spec : specs) {
            alone.push_back(runAlone(spec, chunk));
            if (spec.config.sle) {
                EXPECT_GT(alone.back().sim.elidedLocks, 0u);
            }
            if (spec.config.tm.enabled) {
                EXPECT_GT(alone.back().sim.tmAborts, 0u);
            }
        }
        for (unsigned jobs : {1u, 4u}) {
            SweepEngine engine = makeEngine(jobs, chunk);
            std::vector<RunOutcome> got = executeSpecs(engine, specs);
            ASSERT_EQ(got.size(), specs.size());
            for (size_t i = 0; i < specs.size(); ++i) {
                SCOPED_TRACE("jobs " + std::to_string(jobs) + " chunk " +
                             std::to_string(chunk) + " spec " +
                             std::to_string(i));
                ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
                EXPECT_EQ(got[i].attempts, 1u);
                expectIdentical(alone[i], got[i].output);
            }
            // Two streams; at jobs 4 each is split in two.
            EXPECT_EQ(engine.traceGroups(), jobs == 1 ? 2u : 4u);
        }
    }
}

TEST(SweepEngine, ProducesEachDistinctStreamOnce)
{
    // mixedSpecs reads two streams of testTiny (PC, and its WC
    // rewrite); a reseeded copy of each adds two more. Each stream is
    // made once, whatever the number of runs reading it, and SLE
    // readers (pc3, wc3) read the lock analysis built from the same
    // chunks.
    std::vector<RunSpec> specs = mixedSpecs();
    for (size_t i = 0, n = specs.size(); i < n; i += 3) {
        RunSpec reseeded = specs[i];
        reseeded.seed = 1234;
        specs.push_back(reseeded);
    }
    constexpr uint64_t kChunk = 4096;
    std::set<std::string> streams;
    uint64_t chunks = 0;
    for (const RunSpec &spec : specs) {
        if (streams.insert(test::openRun(spec)->fingerprint()).second)
            chunks += (streamLength(spec) + kChunk - 1) / kChunk;
    }
    ASSERT_EQ(streams.size(), 4u);

    // At jobs 1 that is exact. With more workers, one that runs out of
    // groups may take members over from a running group, whose stream
    // its own producer then makes again: at least that many.
    for (unsigned jobs : {1u, 2u, 4u}) {
        SweepEngine engine = makeEngine(jobs, kChunk);
        std::vector<RunOutcome> got = executeSpecs(engine, specs);
        for (const RunOutcome &o : got)
            ASSERT_TRUE(o.ok) << o.errorMessage;
        StatsRegistry reg;
        engine.exportStats(reg);
        EXPECT_EQ(reg.getCounter("sweep.traceGroups"), engine.traceGroups());
        EXPECT_EQ(reg.getCounter("sweep.traceChunksProduced"),
                  engine.traceChunksProduced());
        if (jobs == 1) {
            EXPECT_EQ(engine.traceGroups(), 4u);
            EXPECT_EQ(engine.traceChunksProduced(), chunks);
        } else {
            EXPECT_GE(engine.traceGroups(), 4u) << "jobs " << jobs;
            EXPECT_GE(engine.traceChunksProduced(), chunks) << "jobs " << jobs;
        }
    }
}

TEST(SweepEngine, OneGroupBatchIsSplitAcrossWorkers)
{
    // Eight runs over one stream at jobs 4: four subgroups of two,
    // each with its own producer, on four pool workers.
    std::vector<RunSpec> specs = mixedSpecs();
    std::vector<RunSpec> one_stream;
    for (const RunSpec &spec : specs) {
        if (!spec.config.memoryModel.wcTraceRewrite()) {
            one_stream.push_back(spec);
            RunSpec resized = spec;
            resized.config.storeQueueSize *= 2;
            one_stream.push_back(resized);
        }
    }
    ASSERT_EQ(one_stream.size(), 8u);
    constexpr uint64_t kChunk = 4096;
    uint64_t chunks = (streamLength(one_stream[0]) + kChunk - 1) / kChunk;

    SweepEngine engine = makeEngine(4, kChunk);
    std::vector<RunOutcome> got = executeSpecs(engine, one_stream);
    for (size_t i = 0; i < one_stream.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
        expectIdentical(runAlone(one_stream[i]), got[i].output);
    }
    // Members taken over later add producers of their own.
    EXPECT_GE(engine.traceGroups(), 4u);
    EXPECT_GE(engine.traceChunksProduced(), 4 * chunks);

    // At jobs 1 the same batch is one group and one production.
    SweepEngine serial = makeEngine(1, kChunk);
    executeSpecs(serial, one_stream);
    EXPECT_EQ(serial.traceGroups(), 1u);
    EXPECT_EQ(serial.traceChunksProduced(), chunks);
}

TEST(SweepEngine, IdleWorkerTakesMembersOverAndStaysExact)
{
    // One long group of eight and one run of its own at jobs 2: the
    // worker done with the short run takes members of the long group
    // over, with a producer of its own. Outcomes stay exact.
    std::vector<RunSpec> specs;
    for (const RunSpec &spec : mixedSpecs()) {
        if (!spec.config.memoryModel.wcTraceRewrite() &&
            !Runner::needsLockAnalysis(spec.config)) {
            for (uint32_t sq : {16u, 32u, 64u}) {
                RunSpec resized = spec;
                resized.config.storeQueueSize = sq;
                specs.push_back(resized);
            }
        }
    }
    specs.resize(8);
    RunSpec short_run = specs[0];
    short_run.warmupInsts = 1000;
    short_run.measureInsts = 1000;
    specs.push_back(short_run);

    SweepEngine engine = makeEngine(2, 4096);
    std::vector<RunOutcome> got = executeSpecs(engine, specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
        expectIdentical(runAlone(specs[i]), got[i].output);
    }
    EXPECT_GT(engine.traceGroups(), 2u);
}

TEST(SweepEngine, FailingMemberFailsAloneAndGroupMatesStayExact)
{
    // One group member cannot build its machine (a 3-way L2), another
    // throws mid-stream from its epoch-log sink. Both fail alone; the
    // rest of the group matches their runs alone bit for bit.
    std::vector<RunSpec> specs = lockMixSpecs();
    specs.resize(4); // the PC group
    RunSpec bad_geometry = specs[0];
    HierarchyConfig hier;
    hier.l2.assoc = 3;
    bad_geometry.hierarchy = hier;
    specs.insert(specs.begin() + 1, bad_geometry);

    auto faults = std::make_shared<std::atomic<int>>(1 << 30);
    FaultingSink sink(faults);
    std::ostream log(&sink);
    log.exceptions(std::ios::badbit);
    specs[3].epochLog = &log;

    for (unsigned jobs : {1u, 2u}) {
        log.clear(); // a failed write left the stream bad
        SweepEngine engine = makeEngine(jobs, 4096);
        std::vector<RunOutcome> got = executeSpecs(engine, specs);
        ASSERT_EQ(got.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + " spec " +
                         std::to_string(i));
            if (i == 1) {
                EXPECT_FALSE(got[i].ok);
                EXPECT_NE(got[i].errorMessage.find("run 1"),
                          std::string::npos)
                    << got[i].errorMessage;
                EXPECT_NE(got[i].errorMessage.find("do not divide"),
                          std::string::npos)
                    << got[i].errorMessage;
            } else if (i == 3) {
                EXPECT_FALSE(got[i].ok);
                EXPECT_NE(got[i].errorMessage.find("epoch sink fault"),
                          std::string::npos)
                    << got[i].errorMessage;
            } else {
                ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
                expectIdentical(runAlone(specs[i]), got[i].output);
            }
        }
        EXPECT_EQ(engine.runsFailed(), 2u);
    }
}

TEST(SweepEngine, RetryRunsAFailedMemberAlone)
{
    // The epoch-log sink of one member always throws. Its retry runs
    // alone (no second group, no counted production) and fails again;
    // its group-mates finish in one attempt, as they would alone.
    std::vector<RunSpec> specs = lockMixSpecs();
    SweepEngine clean = makeEngine(1);
    executeSpecs(clean, specs);

    auto faults = std::make_shared<std::atomic<int>>(1 << 30);
    FaultingSink sink(faults);
    std::ostream log(&sink);
    log.exceptions(std::ios::badbit);
    specs[2].epochLog = &log;

    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.maxAttempts = 2;
    SweepEngine engine(opts);
    std::vector<RunOutcome> got = executeSpecs(engine, specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        if (i == 2) {
            EXPECT_FALSE(got[i].ok);
            EXPECT_EQ(got[i].attempts, 2u);
            continue;
        }
        ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
        EXPECT_EQ(got[i].attempts, 1u);
        expectIdentical(runAlone(specs[i]), got[i].output);
    }
    EXPECT_EQ(engine.runRetries(), 1u);
    EXPECT_EQ(engine.traceGroups(), clean.traceGroups());
    EXPECT_EQ(engine.traceChunksProduced(), clean.traceChunksProduced());
}

TEST(RunnerSession, AnySplitIntoAdvanceStepsMatchesRun)
{
    // Stopping inside the warmup, exactly at its end, past the end of
    // the stream, or in uneven steps gives the one-call run's output.
    std::vector<RunSpec> specs = lockMixSpecs();
    for (const RunSpec &spec : {specs[0], specs[2], specs[7]}) {
        RunOutput ref = runAlone(spec);
        std::optional<LockAnalysis> locks;
        if (Runner::needsLockAnalysis(spec.config))
            locks = LockDetector().analyze(*test::openRun(spec));
        for (uint64_t step : {uint64_t{1777}, spec.warmupInsts,
                              uint64_t{1} << 40}) {
            SCOPED_TRACE("step " + std::to_string(step));
            std::unique_ptr<TraceSource> src = test::openRun(spec, 1021);
            Runner::Session session(spec, *src, locks ? &*locks : nullptr);
            uint64_t end = 0;
            do {
                end += step;
            } while (session.advance(end));
            EXPECT_FALSE(session.advance(end + step));
            expectIdentical(ref, session.finish());
        }
    }
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

    std::vector<RunOutcome> results = executeSpecs(makeEngine(4), specs);
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
        executeSpecs(SweepEngine(opts), specs);
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
    std::vector<RunOutcome> results = executeSpecs(makeEngine(1), specs);
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
    // A run's stream fingerprint names everything that determines the
    // records and nothing else: runs that share it share a trace group.
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
