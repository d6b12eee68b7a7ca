/**
 * @file
 * Tests for the parallel sweep engine and its trace-major execution:
 * bit-identical results across worker counts and chunk sizes (against
 * the materialized whole-trace run and against each run alone), one
 * production per distinct (profile, seed, length, rewrite) stream,
 * per-member fault containment, group splitting, submission-order
 * result collection, and runs of one machine sharing one simulation. Run lengths honour STOREMLP_WARMUP /
 * STOREMLP_MEASURE so CI can scale further down (small defaults keep
 * the suite fast without them).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "core/config_io.hh"
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

    // Four groups keep up to four workers busy unsplit, so at any of
    // these job counts each stream is made exactly once.
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
        EXPECT_EQ(engine.traceGroups(), 4u) << "jobs " << jobs;
        EXPECT_EQ(engine.traceChunksProduced(), chunks) << "jobs " << jobs;
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
    EXPECT_EQ(engine.traceGroups(), 4u);
    EXPECT_EQ(engine.traceChunksProduced(), 4 * chunks);

    // At jobs 1 the same batch is one group and one production.
    SweepEngine serial = makeEngine(1, kChunk);
    executeSpecs(serial, one_stream);
    EXPECT_EQ(serial.traceGroups(), 1u);
    EXPECT_EQ(serial.traceChunksProduced(), chunks);
}

TEST(SweepEngine, UnevenGroupsStayExact)
{
    // One long group of eight and one short run of its own at jobs 2:
    // each group runs from start to end on the worker that took it,
    // so there are exactly two producers, each making its stream once.
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

    constexpr uint64_t kChunk = 4096;
    SweepEngine engine = makeEngine(2, kChunk);
    std::vector<RunOutcome> got = executeSpecs(engine, specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
        expectIdentical(runAlone(specs[i]), got[i].output);
    }
    EXPECT_EQ(engine.traceGroups(), 2u);
    EXPECT_EQ(engine.traceChunksProduced(),
              (streamLength(specs[0]) + kChunk - 1) / kChunk +
                  (streamLength(short_run) + kChunk - 1) / kChunk);
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

/**
 * Another valid value of `v`: a different enum value or flag, twice a
 * size (powers of two stay powers of two), half a fraction.
 */
template <typename T>
void
changeValue(T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        v += "x";
    } else if constexpr (std::is_same_v<T, ModelDescriptor>) {
        v = v.sameRules(ModelDescriptor::pc()) ? ModelDescriptor::wc()
                                               : ModelDescriptor::pc();
    } else if constexpr (std::is_same_v<T, bool>) {
        v = !v;
    } else if constexpr (std::is_enum_v<T>) {
        for (const EnumName<T> &n : enumNames(v)) {
            if (n.value != v) {
                v = n.value;
                return;
            }
        }
    } else if constexpr (std::is_integral_v<T>) {
        v = v ? v * 2 : 1;
    } else {
        v = v ? v / 2 : 0.125;
    }
}

/** Simulations the engine plans for `a` and `b` as one batch. */
uint64_t
simulationsOf(const RunSpec &a, const RunSpec &b)
{
    SweepEngine engine = makeEngine(1);
    std::vector<RunOutcome> got = executeSpecs(engine, {a, b});
    EXPECT_EQ(got.size(), 2u);
    return engine.simulations();
}

TEST(SweepEngine, RunsShareASimulationOnlyWhenTheirSpecsAreEqual)
{
    // Every SimConfig and profile key, and every other RunSpec member,
    // is part of the machine: changing any one of them stops two runs
    // from sharing a simulation. Display names are not: the config's
    // name and the memory model's may differ.
    RunSpec base = lockMixSpecs()[0];
    base.warmupInsts = 200;
    base.measureInsts = 300;
    EXPECT_EQ(simulationsOf(base, base), 1u);

    for (const SimConfigField &f : simConfigFields()) {
        SCOPED_TRACE(std::string("config key ") + f.key);
        RunSpec changed = base;
        std::visit([&](auto m) { changeValue(fieldOf(changed.config, m)); },
                   f.member);
        ASSERT_FALSE(changed.config == base.config);
        bool display_name = std::string(f.key) == "name";
        EXPECT_EQ(simulationsOf(base, changed), display_name ? 1u : 2u);
    }
    for (const ProfileField &f : workloadProfileFields()) {
        SCOPED_TRACE(std::string("profile key ") + f.key);
        RunSpec changed = base;
        std::visit(
            [&](auto m) { changeValue(fieldOf(changed.profile, m)); },
            f.member);
        ASSERT_FALSE(changed.profile == base.profile);
        EXPECT_EQ(simulationsOf(base, changed), 2u);
    }

    std::ostringstream log;
    const std::pair<const char *, std::function<void(RunSpec &)>>
        members[] = {
            {"seed", [](RunSpec &s) { ++s.seed; }},
            {"warmupInsts", [](RunSpec &s) { ++s.warmupInsts; }},
            {"measureInsts", [](RunSpec &s) { ++s.measureInsts; }},
            // The same stream, measured from a later record.
            {"warmupInsts/measureInsts",
             [](RunSpec &s) {
                 s.warmupInsts += 100;
                 s.measureInsts -= 100;
             }},
            {"numChips", [](RunSpec &s) { s.numChips = 2; }},
            {"smac", [](RunSpec &s) { s.smac = SmacConfig{}; }},
            {"protocol",
             [](RunSpec &s) { s.protocol = CoherenceProtocol::Moesi; }},
            {"peerTraffic", [](RunSpec &s) { s.peerTraffic = true; }},
            {"siblingCore", [](RunSpec &s) { s.siblingCore = true; }},
            {"prefillL2", [](RunSpec &s) { s.prefillL2 = false; }},
            {"hierarchy",
             [](RunSpec &s) { s.hierarchy = HierarchyConfig{}; }},
            {"hierarchy.l2",
             [](RunSpec &s) {
                 s.hierarchy = HierarchyConfig{};
                 s.hierarchy->l2.sizeBytes *= 2;
             }},
            {"epochLog", [&log](RunSpec &s) { s.epochLog = &log; }},
        };
    for (const auto &[name, change] : members) {
        SCOPED_TRACE(std::string("member ") + name);
        RunSpec changed = base;
        change(changed);
        EXPECT_EQ(simulationsOf(base, changed), 2u);
    }

    RunSpec renamed = base;
    renamed.config.name = "other";
    renamed.config.memoryModel.name = "custom";
    ASSERT_TRUE(renamed.config.memoryModel.sameRules(
        base.config.memoryModel));
    EXPECT_EQ(simulationsOf(base, renamed), 1u);
}

TEST(SweepEngine, SharedSimulationSettlesEveryRunUnderItsOwnIdentity)
{
    // Runs 0, 2 and 3 are one machine under three names; run 1 another.
    // Each run is reported once, with its own name, and its outcome
    // equals its spec run alone; only run 0 bills simulation time.
    std::vector<RunSpec> specs = lockMixSpecs();
    specs = {specs[0], specs[1], specs[0], specs[0]};
    specs[2].config.name = "renamed";
    specs[3].config.memoryModel.name = "custom";
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        std::vector<PlannedRun> planned(specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            planned[i].name = "run" + std::to_string(i);
            planned[i].configName = "cfg" + std::to_string(i);
            planned[i].spec = specs[i];
        }
        std::vector<std::string> reported;
        SweepEngine engine = makeEngine(jobs);
        std::vector<RunOutcome> got = engine.execute(
            planned, [&](const RunOutcome &o, size_t, size_t) {
                reported.push_back(o.name);
            });
        EXPECT_EQ(engine.simulations(), 2u);
        std::vector<std::string> same; // the shared machine's runs, in order
        for (const std::string &n : reported) {
            if (n != "run1")
                same.push_back(n);
        }
        EXPECT_EQ(same, (std::vector<std::string>{"run0", "run2", "run3"}));
        ASSERT_EQ(reported.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE("run " + std::to_string(i));
            ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
            EXPECT_EQ(got[i].name, planned[i].name);
            EXPECT_EQ(got[i].configName, planned[i].configName);
            EXPECT_EQ(got[i].attempts, 1u);
            expectIdentical(runAlone(specs[i]), got[i].output);
            if (i >= 2) {
                EXPECT_EQ(got[i].wallMs, 0.0);
            } else {
                EXPECT_GT(got[i].wallMs, 0.0);
            }
        }
        StatsRegistry reg;
        engine.exportStats(reg);
        EXPECT_EQ(reg.getCounter("sweep.simulations"), 2u);
        EXPECT_EQ(reg.getCounter("sweep.runs.ok"), 4u);
    }
}

TEST(SweepEngine, FailedSharedSimulationFailsEachRunAndRetriesOnce)
{
    // Three runs of a machine that cannot be built (a 3-way L2) under
    // three config names, and one good run. With two attempts the
    // shared simulation is retried once, not once per run, and each of
    // its runs fails with a RunError naming its own index and config.
    RunSpec good = lockMixSpecs()[0];
    RunSpec bad = good;
    HierarchyConfig hier;
    hier.l2.assoc = 3;
    bad.hierarchy = hier;
    std::vector<RunSpec> specs = {bad, good, bad, bad};
    for (size_t i = 0; i < specs.size(); ++i)
        specs[i].config.name = "cfg" + std::to_string(i);
    for (unsigned jobs : {1u, 2u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.maxAttempts = 2;
        SweepEngine engine(opts);
        std::vector<RunOutcome> got = executeSpecs(engine, specs);
        ASSERT_EQ(got.size(), specs.size());
        ASSERT_TRUE(got[1].ok) << got[1].errorMessage;
        EXPECT_EQ(got[1].attempts, 1u);
        expectIdentical(runAlone(good), got[1].output);
        for (size_t i : {0u, 2u, 3u}) {
            SCOPED_TRACE("run " + std::to_string(i));
            EXPECT_FALSE(got[i].ok);
            EXPECT_EQ(got[i].attempts, 2u);
            const std::string &msg = got[i].errorMessage;
            std::string own = "run " + std::to_string(i) + " (cfg" +
                std::to_string(i) + "): ";
            EXPECT_EQ(msg.rfind(own, 0), 0u) << msg;
            EXPECT_NE(msg.find("do not divide"), std::string::npos) << msg;
        }
        EXPECT_EQ(engine.simulations(), 2u);
        EXPECT_EQ(engine.runRetries(), 1u);
        EXPECT_EQ(engine.runsFailed(), 3u);
        EXPECT_EQ(engine.runsSucceeded(), 1u);
    }
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
