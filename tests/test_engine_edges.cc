/**
 * @file
 * Engine edge cases: degenerate traces, minimal structure sizes,
 * extreme configurations, fence-heavy weak-consistency patterns, and
 * atomics to missing lock words.
 */

#include <gtest/gtest.h>

#include "sim_test_util.hh"
#include "trace/generator.hh"

namespace storemlp
{
namespace
{

using namespace storemlp::test;

TEST(EngineEdges, EmptyTrace)
{
    SimRig rig;
    SimResult res = rig.run(Trace(), SimConfig::defaults());
    EXPECT_EQ(res.instructions, 0u);
    EXPECT_EQ(res.epochs, 0u);
}

TEST(EngineEdges, SingleInstruction)
{
    SimRig rig;
    SimResult res =
        rig.run(TraceBuilder().alu(1, 2, 3).build(),
                SimConfig::defaults());
    EXPECT_EQ(res.instructions, 1u);
    EXPECT_EQ(res.epochs, 0u);
}

TEST(EngineEdges, AllMembarTrace)
{
    TraceBuilder b;
    for (int i = 0; i < 200; ++i)
        b.membar();
    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    // Nothing misses: serializing instructions alone cost no epochs.
    EXPECT_EQ(res.epochs, 0u);
    EXPECT_EQ(res.instructions, 200u);
}

TEST(EngineEdges, AllLwsyncTraceUnderWc)
{
    TraceBuilder b;
    for (int i = 0; i < 100; ++i) {
        b.store(warmAddr(i % 8), 2);
        b.lwsync();
    }
    SimConfig wc = SimConfig::defaults();
    wc.memoryModel = ModelDescriptor::wc();
    SimRig rig;
    SimResult res = rig.run(b.build(), wc);
    EXPECT_EQ(res.epochs, 0u); // hit stores drain through fences
}

TEST(EngineEdges, MinimalQueues)
{
    // SB=1, SQ=1: everything still retires correctly.
    TraceBuilder b;
    for (int i = 0; i < 50; ++i)
        b.store(warmAddr(i % 4), 2);
    b.store(missAddr(0), 3);
    fillers(b, 700);

    SimConfig cfg = SimConfig::defaults();
    cfg.storeBufferSize = 1;
    cfg.storeQueueSize = 1;
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    EXPECT_EQ(res.missStores, 1u);
    // The lone miss resolves quietly (filler-only aftermath).
    EXPECT_EQ(res.epochs, 0u);
}

TEST(EngineEdges, CasaToMissingLockWord)
{
    // A cold lock word: the casa's own load is the epoch trigger.
    TraceBuilder b;
    b.casa(missAddr(0), 3);
    b.store(missAddr(0), 4); // release pairs it as a lock
    fillers(b, 100);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.missLoads, 1u); // the casa's load half
    EXPECT_GE(res.epochs, 1u);
}

TEST(EngineEdges, TinyRobStillProgresses)
{
    TraceBuilder b;
    b.load(missAddr(0), 5);
    fillers(b, 200);
    SimConfig cfg = SimConfig::defaults();
    cfg.robSize = 4;
    cfg.issueWindowSize = 4;
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    EXPECT_EQ(res.epochs, 1u);
    EXPECT_EQ(res.termCounts[static_cast<unsigned>(
                  TermCond::WindowFull)],
              1u);
}

TEST(EngineEdges, ZeroMissLatencyDegenerates)
{
    // latency 0: every generation resolves instantly; no epochs.
    TraceBuilder b;
    b.load(missAddr(0), 5);
    fillers(b, 100);
    SimConfig cfg = SimConfig::defaults();
    cfg.missLatency = 0;
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    EXPECT_EQ(res.epochs, 0u);
}

TEST(EngineEdges, BackToBackSerializingWithMisses)
{
    TraceBuilder b;
    for (int i = 0; i < 5; ++i) {
        b.store(missAddr(i), 2);
        b.membar();
    }
    fillers(b, 50);
    SimRig rig;
    SimConfig cfg = SimConfig::defaults();
    cfg.storePrefetch = StorePrefetch::None;
    SimResult res = rig.run(b.build(), cfg);
    // Each store serializes against its own membar: five epochs.
    EXPECT_EQ(res.epochs, 5u);
    EXPECT_EQ(res.termCounts[static_cast<unsigned>(
                  TermCond::StoreSerialize)],
              5u);
}

TEST(EngineEdges, WcFenceChainsCommitInOrder)
{
    // miss / fence / miss / fence: fences force serial commit under
    // WC even with prefetching.
    TraceBuilder b;
    b.store(missAddr(0), 2);
    b.lwsync();
    b.store(missAddr(1), 3);
    b.lwsync();
    b.store(missAddr(2), 4);
    b.membar(); // expose
    fillers(b, 50);

    SimConfig wc = SimConfig::defaults();
    wc.memoryModel = ModelDescriptor::wc();
    wc.storePrefetch = StorePrefetch::AtRetire;
    SimRig rig;
    SimResult res = rig.run(b.build(), wc);
    // Prefetch overlaps the latencies, but commits stay ordered;
    // the final membar drains everything in one epoch.
    EXPECT_GE(res.epochs, 1u);
    EXPECT_EQ(res.missStores, 3u);
}

TEST(EngineEdges, StoreDataDependsOnMissingLoad)
{
    // The store's DATA comes from a missing load: it cannot retire
    // until the load resolves, then commits (its own line is warm).
    TraceBuilder b;
    b.load(missAddr(0), 5);
    b.store(warmAddr(0), 5); // data = r5
    fillers(b, 100);
    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.epochs, 1u);
    EXPECT_EQ(res.missStores, 0u);
}

TEST(EngineEdges, StoreAddressDependsOnMissingLoad)
{
    // Address-dependent store: with Sp2 the prefetch cannot fire
    // until the address resolves; the store's miss forms its own
    // epoch exposed by a membar.
    TraceBuilder b;
    b.load(missAddr(0), 5);
    TraceRecord st;
    b.store(missAddr(1), 6, 5); // base register = missing load's dst
    b.membar();
    fillers(b, 100);
    (void)st;

    SimConfig cfg = SimConfig::defaults();
    cfg.storePrefetch = StorePrefetch::AtExecute;
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    EXPECT_EQ(res.epochs, 2u);
    EXPECT_EQ(res.missStores, 1u);
}

TEST(EngineEdges, RerunAfterTakeResultContinues)
{
    // process() can be called after takeResult(): state persists.
    Trace t1 = TraceBuilder().load(missAddr(0), 5).build();
    TraceBuilder b2;
    fillers(b2, 100);
    Trace t2 = b2.build();

    SimRig rig;
    rig.locks = test::analyzeTrace(t1);
    rig.warmFor(t1);
    MlpSimulator sim(SimConfig::defaults(), rig.chip, &rig.locks);
    MaterializedSource s1(t1), s2(t2);
    TraceCursor c1(s1), c2(s2);
    sim.process(c1, 0, t1.size(), true);
    SimResult first = sim.takeResult();
    sim.process(c2, 0, t2.size(), true);
    SimResult both = sim.takeResult();
    EXPECT_GE(both.instructions, first.instructions + 100);
}

TEST(EngineEdges, ChunkedProcessingMatchesSingleRun)
{
    // The dual-core runner interleaves cores at a quantum; that is
    // only sound if chunked process() calls are equivalent to one
    // continuous run for a single core.
    WorkloadProfile p = WorkloadProfile::testTiny();
    Trace t = SyntheticTraceGenerator(p, 5).generate(60000);
    LockAnalysis locks = test::analyzeTrace(t);

    auto run_chunked = [&](uint64_t chunk) {
        ChipNode chip(HierarchyConfig{}, 0);
        SimConfig cfg = SimConfig::defaults();
        MlpSimulator sim(cfg, chip, &locks);
        MaterializedSource src(t);
        TraceCursor cur(src);
        for (uint64_t pos = 0; pos < t.size(); pos += chunk)
            sim.process(cur, pos, pos + chunk, true);
        return sim.takeResult();
    };

    SimResult whole = run_chunked(t.size());
    SimResult chunked = run_chunked(257); // odd chunk on purpose
    EXPECT_EQ(whole.epochs, chunked.epochs);
    EXPECT_EQ(whole.epochMisses, chunked.epochMisses);
    EXPECT_EQ(whole.missLoads, chunked.missLoads);
    EXPECT_EQ(whole.missStores, chunked.missStores);
    EXPECT_EQ(whole.overlappedStores, chunked.overlappedStores);
    for (unsigned i = 0; i < kNumTermConds; ++i)
        EXPECT_EQ(whole.termCounts[i], chunked.termCounts[i]);
}

TEST(EngineEdges, TmUnderWeakConsistency)
{
    // TM composes with the WC model: elided WC lock idioms.
    uint64_t lock = warmAddr(0);
    TraceBuilder b;
    b.store(missAddr(0), 2);
    b.loadLocked(lock, 3);
    b.storeCond(lock, 3);
    b.isync();
    b.alu();
    b.lwsync();
    b.store(lock, 4);
    fillers(b, 600);

    SimConfig cfg = SimConfig::defaults();
    cfg.memoryModel = ModelDescriptor::wc();
    cfg.tm.enabled = true;
    cfg.tm.abortProb = 0.0;
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    // Fully elided: the lone store miss overlaps quietly.
    EXPECT_EQ(res.epochs, 0u);
}

TEST(EngineEdges, HighCpiShortensScoutReach)
{
    // At high on-chip CPI the scout's instruction budget shrinks:
    // a distant miss falls out of reach.
    auto build = [] {
        TraceBuilder b;
        b.load(missAddr(0), 5);
        fillers(b, 300);
        b.load(missAddr(1), 6);
        fillers(b, 100);
        return b.build();
    };
    SimConfig fast = SimConfig::defaults().withScout(ScoutMode::Hws0);
    fast.cpiOnChip = 1.0; // budget ~500 insts: reaches the 2nd load
    SimRig rig1;
    SimResult far = rig1.run(build(), fast);
    EXPECT_EQ(far.epochs, 1u);

    SimConfig slow = fast;
    slow.cpiOnChip = 4.0; // budget ~125 insts: cannot reach it
    SimRig rig2;
    SimResult near = rig2.run(build(), slow);
    EXPECT_EQ(near.epochs, 2u);
}

} // namespace
} // namespace storemlp
