/**
 * @file
 * Unit tests for the epoch engine itself: quiet overlap (Table 2
 * mechanism), window terminations, SLE, prefetch-past-serializing,
 * Hardware Scout modes, perfect stores, coalescing pressure relief,
 * weak-consistency commit.
 */

#include <gtest/gtest.h>

#include "sim_test_util.hh"
#include "trace/rewriter.hh"

namespace storemlp
{
namespace
{

using namespace storemlp::test;

unsigned
term(const SimResult &res, TermCond c)
{
    return static_cast<unsigned>(res.termCounts[static_cast<unsigned>(c)]);
}

// ---- quiet overlap: the Table 2 mechanism ----

TEST(EpochEngine, StoreMissFullyOverlappedByComputation)
{
    // A lone missing store followed by 600 cycles of independent ALU
    // work: the store's 500-cycle latency is fully hidden; no epoch.
    TraceBuilder b;
    b.store(missAddr(0), 2);
    fillers(b, 600);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.epochs, 0u);
    EXPECT_EQ(res.missStores, 1u);
    EXPECT_EQ(res.overlappedStores, 1u);
    EXPECT_DOUBLE_EQ(res.overlappedStoreFraction(), 1.0);
}

TEST(EpochEngine, StoreMissNotOverlappedWhenSerializeArrives)
{
    // Same store, but a membar lands inside its latency window.
    TraceBuilder b;
    b.store(missAddr(0), 2);
    fillers(b, 100);
    b.membar();
    fillers(b, 600);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.epochs, 1u);
    EXPECT_EQ(res.overlappedStores, 0u);
    EXPECT_EQ(term(res, TermCond::StoreSerialize), 1u);
}

TEST(EpochEngine, LoadMissAlmostNeverOverlapped)
{
    // ROB(64) << latency(500): a missing load with plenty of work
    // still stalls the window (the paper's observation that loads are
    // only marginally overlappable).
    TraceBuilder b;
    b.load(missAddr(0), 2);
    fillers(b, 600);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.epochs, 1u);
    EXPECT_EQ(term(res, TermCond::WindowFull), 1u);
}

TEST(EpochEngine, TrailingOpenGenerationIsQuiet)
{
    TraceBuilder b;
    fillers(b, 10);
    b.store(missAddr(0), 2); // still in flight at end of trace
    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.epochs, 0u);
    EXPECT_EQ(res.overlappedStores, 1u);
}

// ---- terminations ----

TEST(EpochEngine, InstructionMissTerminatesAndResumes)
{
    TraceBuilder b;
    fillers(b, 4);
    b.alu().atPc(missPc(0));
    fillers(b, 4);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.epochs, 1u);
    EXPECT_EQ(res.missInsts, 1u);
    EXPECT_EQ(term(res, TermCond::InstructionMiss), 1u);
    EXPECT_EQ(res.instructions, 9u);
}

TEST(EpochEngine, MispredictedBranchDependentOnMissTerminates)
{
    TraceBuilder b;
    b.load(missAddr(0), 5);
    // Taken branch consuming the load's destination: cold BTB
    // guarantees a misprediction; the poisoned source makes it
    // unresolvable.
    b.branch(true, 5);
    fillers(b, 100);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_GE(term(res, TermCond::MispredBranch), 1u);
}

TEST(EpochEngine, CorrectlyPredictedDependentBranchDoesNotTerminate)
{
    // Train the predictor within the trace, then the dependent branch
    // is predicted correctly: no mispredict termination.
    TraceBuilder b;
    for (int i = 0; i < 80; ++i)
        b.branch(true, 1).atPc(0x2000);
    b.load(missAddr(0), 5);
    b.branch(true, 5).atPc(0x2000);
    fillers(b, 100);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(term(res, TermCond::MispredBranch), 0u);
    EXPECT_EQ(term(res, TermCond::WindowFull), 1u);
}

TEST(EpochEngine, IssueWindowFullOnDeferredChain)
{
    // A missing load followed by a long dependent chain: the issue
    // window (32) fills with deferred instructions before the ROB
    // (64) does.
    TraceBuilder b;
    b.load(missAddr(0), 5);
    for (int i = 0; i < 50; ++i)
        b.alu(5, 5); // all dependent on the load
    fillers(b, 50);

    SimConfig cfg = SimConfig::defaults();
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    EXPECT_EQ(res.epochs, 1u);
    EXPECT_EQ(term(res, TermCond::WindowFull), 1u);
}

TEST(EpochEngine, PointerChaseCreatesSerialEpochs)
{
    // loadA -> loadB(dep) -> loadC(dep): three serial epochs.
    TraceBuilder b;
    b.load(missAddr(0), 5);
    b.load(missAddr(1), 6, 5);
    b.load(missAddr(2), 7, 6);
    fillers(b, 100);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.epochs, 3u);
    EXPECT_EQ(res.missLoads, 3u);
    EXPECT_DOUBLE_EQ(res.mlp(), 1.0);
}

TEST(EpochEngine, IndependentLoadsOverlapInOneEpoch)
{
    TraceBuilder b;
    b.load(missAddr(0), 5);
    b.load(missAddr(1), 6);
    b.load(missAddr(2), 7);
    fillers(b, 100);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.epochs, 1u);
    EXPECT_DOUBLE_EQ(res.mlp(), 3.0);
}

TEST(EpochEngine, HitUnderMissPoisonsConsumer)
{
    // Two loads to the SAME missing line: one off-chip miss, but the
    // second load's value is also unavailable, so a dependent chain
    // defers on it.
    TraceBuilder b;
    b.load(missAddr(0), 5);
    b.load(missAddr(0) + 8, 6);
    for (int i = 0; i < 50; ++i)
        b.alu(6, 6);
    fillers(b, 60);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    EXPECT_EQ(res.missLoads, 1u); // MSHR merge: one miss
    EXPECT_EQ(res.epochs, 1u);
}

// ---- SLE ----

TEST(EpochEngine, SleElidesLockSerialization)
{
    auto build = [] {
        TraceBuilder b;
        uint64_t lock = warmAddr(0);
        b.store(missAddr(0), 2);
        b.casa(lock, 3).withFlags(kFlagLockAcquire);
        b.alu();
        b.store(lock, 4).withFlags(kFlagLockRelease);
        fillers(b, 600);
        return b.build();
    };

    SimConfig base = SimConfig::defaults();
    SimRig rig1;
    SimResult no_sle = rig1.run(build(), base);
    // Without SLE the casa forces a store-serialize epoch.
    EXPECT_EQ(no_sle.epochs, 1u);

    SimConfig with_sle = base;
    with_sle.sle = true;
    SimRig rig2;
    SimResult sle = rig2.run(build(), with_sle);
    // With SLE the acquire is a plain load: the store miss is fully
    // overlapped and no epoch forms.
    EXPECT_EQ(sle.epochs, 0u);
    EXPECT_EQ(sle.overlappedStores, 1u);
    EXPECT_GE(sle.elidedLocks, 1u);
}

TEST(EpochEngine, SleDoesNotElideBareAtomics)
{
    TraceBuilder b;
    b.store(missAddr(0), 2);
    b.casa(warmAddr(0), 3); // no matching release: not a lock
    fillers(b, 600);

    SimConfig cfg = SimConfig::defaults();
    cfg.sle = true;
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    EXPECT_EQ(res.epochs, 1u); // still serializes
}

// ---- prefetch past serializing instructions ----

TEST(EpochEngine, PrefetchPastSerializingMergesEpochs)
{
    auto build = [] {
        TraceBuilder b;
        b.store(missAddr(0), 2);
        b.membar();
        b.load(missAddr(1), 3);
        fillers(b, 100);
        return b.build();
    };

    SimRig rig1;
    SimResult base = rig1.run(build(), SimConfig::defaults());
    EXPECT_EQ(base.epochs, 2u);

    SimConfig pps = SimConfig::defaults();
    pps.prefetchPastSerializing = true;
    SimRig rig2;
    SimResult merged = rig2.run(build(), pps);
    // The load beyond the membar is prefetched into the first epoch.
    EXPECT_EQ(merged.epochs, 1u);
    EXPECT_EQ(merged.epochMisses, 2u);
}

TEST(EpochEngine, PrefetchPastSerializingBoundedByRob)
{
    // The missing load sits beyond the ROB-sized lookahead window:
    // it cannot be prefetched.
    TraceBuilder b;
    b.store(missAddr(0), 2);
    b.membar();
    fillers(b, 100); // > robSize(64) instructions
    b.load(missAddr(1), 3);
    fillers(b, 100);

    SimConfig pps = SimConfig::defaults();
    pps.prefetchPastSerializing = true;
    SimRig rig;
    SimResult res = rig.run(b.build(), pps);
    EXPECT_EQ(res.epochs, 2u);
}

// ---- Hardware Scout ----

Trace
scoutLoadTrace()
{
    // loadA misses; loadB is far beyond the ROB window.
    TraceBuilder b;
    b.load(missAddr(0), 5);
    fillers(b, 100);
    b.load(missAddr(1), 6);
    fillers(b, 100);
    return b.build();
}

TEST(EpochEngine, ScoutMergesDistantLoadMiss)
{
    SimRig rig1;
    SimResult base = rig1.run(scoutLoadTrace(), SimConfig::defaults());
    EXPECT_EQ(base.epochs, 2u);

    SimConfig hws0 = SimConfig::defaults().withScout(ScoutMode::Hws0);
    SimRig rig2;
    SimResult scout = rig2.run(scoutLoadTrace(), hws0);
    EXPECT_EQ(scout.epochs, 1u);
    EXPECT_EQ(scout.epochMisses, 2u);
    EXPECT_GE(scout.scoutEntries, 1u);
    EXPECT_GE(scout.scoutPrefetches, 1u);
}

TEST(EpochEngine, ScoutSkipsMissDependentLoads)
{
    // The second load's address depends on the first: the scout
    // cannot prefetch it (poisoned address register).
    TraceBuilder b;
    b.load(missAddr(0), 5);
    fillers(b, 100);
    b.load(missAddr(1), 6, 5); // address from the missing load
    fillers(b, 100);

    SimConfig hws0 = SimConfig::defaults().withScout(ScoutMode::Hws0);
    SimRig rig;
    SimResult res = rig.run(b.build(), hws0);
    EXPECT_EQ(res.epochs, 2u);
}

Trace
scoutStoreTrace()
{
    // loadA misses; a missing store beyond the window; a membar to
    // expose the store's latency if it was not prefetched.
    TraceBuilder b;
    b.load(missAddr(0), 5);
    fillers(b, 100);
    b.store(missAddr(1), 6);
    b.membar();
    fillers(b, 100);
    return b.build();
}

TEST(EpochEngine, Hws1PrefetchesStoresButHws0DoesNot)
{
    SimConfig hws0 = SimConfig::defaults().withScout(ScoutMode::Hws0);
    SimRig rig0;
    SimResult res0 = rig0.run(scoutStoreTrace(), hws0);

    SimConfig hws1 = SimConfig::defaults().withScout(ScoutMode::Hws1);
    SimRig rig1;
    SimResult res1 = rig1.run(scoutStoreTrace(), hws1);

    EXPECT_EQ(res0.epochs, 2u); // store miss pays its own epoch
    EXPECT_EQ(res1.epochs, 1u); // store prefetched during scout
}

TEST(EpochEngine, Hws2EntersScoutOnStoreStall)
{
    // A store-serialize stall with NO missing load: only HWS2 scouts,
    // merging the distant load miss into the store's epoch.
    auto build = [] {
        TraceBuilder b;
        b.store(missAddr(0), 2);
        b.membar();
        fillers(b, 100); // beyond ROB: PC2-style lookahead can't reach
        b.load(missAddr(1), 3);
        fillers(b, 100);
        return b.build();
    };

    SimConfig hws1 = SimConfig::defaults().withScout(ScoutMode::Hws1);
    SimRig rig1;
    SimResult res1 = rig1.run(build(), hws1);
    EXPECT_EQ(res1.epochs, 2u);

    SimConfig hws2 = SimConfig::defaults().withScout(ScoutMode::Hws2);
    SimRig rig2;
    SimResult res2 = rig2.run(build(), hws2);
    EXPECT_EQ(res2.epochs, 1u);
    EXPECT_GE(res2.scoutEntries, 1u);
}

TEST(EpochEngine, ScoutStopsAtInstructionMiss)
{
    // Scout cannot run past a missing instruction fetch, but it
    // prefetches the missing line itself.
    TraceBuilder b;
    b.load(missAddr(0), 5);
    fillers(b, 10);
    b.alu().atPc(missPc(0));
    b.alu().atPc(0x3000); // back to warm code
    fillers(b, 10);
    b.load(missAddr(1), 6); // behind the inst miss: not scouted...
    fillers(b, 100);

    SimConfig hws0 = SimConfig::defaults().withScout(ScoutMode::Hws0);
    SimRig rig;
    SimResult res = rig.run(b.build(), hws0);
    // Epoch 1: loadA + the prefetched instruction line. Epoch 2: loadB.
    EXPECT_EQ(res.epochs, 2u);
    EXPECT_EQ(res.missInsts, 1u);
    EXPECT_EQ(res.epochMisses, 3u);
}

// ---- perfect stores / infinite queue ----

TEST(EpochEngine, PerfectStoresNeverStall)
{
    TraceBuilder b;
    for (int i = 0; i < 8; ++i)
        b.store(missAddr(i), 2);
    b.membar();
    fillers(b, 100);

    SimConfig cfg = SimConfig::defaults();
    cfg.perfectStores = true;
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    EXPECT_EQ(res.epochs, 0u);
}

TEST(EpochEngine, InfiniteStoreQueueRemovesBackpressure)
{
    // Many missing stores then a missing load: with an infinite queue
    // the load joins the first store's epoch instead of stalling on
    // queue backpressure.
    TraceBuilder b;
    for (int i = 0; i < 40; ++i)
        b.store(missAddr(i), 2);
    b.load(missAddr(60), 3);
    fillers(b, 100);

    SimConfig cfg = SimConfig::defaults();
    cfg.storePrefetch = StorePrefetch::AtExecute;
    cfg.infiniteStoreQueue = true;
    SimRig rig;
    SimResult res = rig.run(b.build(), cfg);
    EXPECT_EQ(res.epochs, 1u);
    EXPECT_EQ(term(res, TermCond::SqStoreBufferFull), 0u);
    EXPECT_EQ(term(res, TermCond::StoreBufferFull), 0u);
}

// ---- coalescing ----

TEST(EpochEngine, CoalescingRelievesQueuePressure)
{
    // 60 stores into the same 8-byte granule: with coalescing they
    // occupy one SQ entry; without, they overflow SQ+SB and stall.
    auto build = [] {
        TraceBuilder b;
        b.store(missAddr(0), 2);
        for (int i = 0; i < 60; ++i)
            b.store(warmAddr(0), 3);
        fillers(b, 600);
        return b.build();
    };

    SimConfig with_coal = SimConfig::defaults();
    SimRig rig1;
    SimResult coal = rig1.run(build(), with_coal);
    EXPECT_EQ(coal.epochs, 0u); // miss fully overlapped
    EXPECT_GT(coal.coalescedStores, 50u);

    SimConfig no_coal = SimConfig::defaults();
    no_coal.coalesceBytes = 0;
    SimRig rig2;
    SimResult flat = rig2.run(build(), no_coal);
    EXPECT_GE(flat.epochs, 1u); // queue filled behind the miss
}

// ---- weak consistency commit ----

TEST(EpochEngine, WcHitsBypassMissingHead)
{
    // Missing store at the head; many hit stores behind it. Under PC
    // they clog the queue; under WC they drain past it.
    auto build = [] {
        TraceBuilder b;
        b.store(missAddr(0), 2);
        for (int i = 0; i < 60; ++i)
            b.store(warmAddr(i), 3);
        fillers(b, 600);
        return b.build();
    };

    SimConfig pc = SimConfig::defaults();
    pc.storePrefetch = StorePrefetch::None;
    pc.coalesceBytes = 0;
    SimRig rig1;
    SimResult res_pc = rig1.run(build(), pc);
    EXPECT_GE(res_pc.epochs, 1u);

    SimConfig wc = pc;
    wc.memoryModel = ModelDescriptor::wc();
    SimRig rig2;
    SimResult res_wc = rig2.run(build(), wc);
    EXPECT_EQ(res_wc.epochs, 0u);
}

TEST(EpochEngine, WcLwsyncFencesCommitOrder)
{
    // missing store; lwsync; 60 hit stores. The fence keeps the hit
    // stores queued behind the miss, so the queue fills and stalls.
    TraceBuilder b;
    b.store(missAddr(0), 2);
    b.lwsync();
    for (int i = 0; i < 60; ++i)
        b.store(warmAddr(i), 3);
    fillers(b, 600);

    SimConfig wc = SimConfig::defaults();
    wc.memoryModel = ModelDescriptor::wc();
    wc.storePrefetch = StorePrefetch::None;
    wc.coalesceBytes = 0;
    SimRig rig;
    SimResult res = rig.run(b.build(), wc);
    EXPECT_GE(res.epochs, 1u);
}

TEST(EpochEngine, WcYoungerMissesWaitWithoutPrefetch)
{
    // Two missing stores under WC without prefetching: the younger
    // one issues only after the older resolves (two epochs, exposed
    // by membars).
    TraceBuilder b;
    b.store(missAddr(0), 2);
    b.store(missAddr(1), 3);
    b.membar();
    fillers(b, 100);

    SimConfig wc = SimConfig::defaults();
    wc.memoryModel = ModelDescriptor::wc();
    wc.storePrefetch = StorePrefetch::None;
    SimRig rig;
    SimResult res = rig.run(b.build(), wc);
    EXPECT_EQ(res.epochs, 2u);

    // With prefetch-at-retire they overlap into one epoch.
    SimConfig wc1 = wc;
    wc1.storePrefetch = StorePrefetch::AtRetire;
    SimRig rig2;
    TraceBuilder b2;
    b2.store(missAddr(0), 2);
    b2.store(missAddr(1), 3);
    b2.membar();
    fillers(b2, 100);
    SimResult res1 = rig2.run(b2.build(), wc1);
    EXPECT_EQ(res1.epochs, 1u);
}

// ---- misc engine invariants ----

TEST(EpochEngine, SleRequiresLockAnalysis)
{
    SimConfig cfg = SimConfig::defaults();
    cfg.sle = true;
    ChipNode chip(HierarchyConfig{}, 0);
    EXPECT_THROW(MlpSimulator(cfg, chip, nullptr),
                 std::invalid_argument);
}

TEST(EpochEngine, TerminationCountsSumToEpochs)
{
    TraceBuilder b;
    b.load(missAddr(0), 5);
    fillers(b, 100);
    b.store(missAddr(1), 6);
    b.membar();
    b.alu().atPc(missPc(0));
    fillers(b, 100);

    SimRig rig;
    SimResult res = rig.run(b.build(), SimConfig::defaults());
    uint64_t sum = 0;
    for (unsigned i = 0; i < kNumTermConds; ++i)
        sum += res.termCounts[i];
    EXPECT_EQ(sum, res.epochs);
    EXPECT_EQ(res.mlpHist.total(), res.epochs);
    EXPECT_EQ(res.storeVsOtherMlp.total(), res.epochs);
}

TEST(EpochEngine, BandwidthCountersTrackPrefetches)
{
    TraceBuilder b;
    for (int i = 0; i < 6; ++i)
        b.store(missAddr(i), 2);
    b.membar();
    fillers(b, 50);

    SimConfig sp2 = SimConfig::defaults();
    sp2.storePrefetch = StorePrefetch::AtExecute;
    SimRig rig;
    SimResult res = rig.run(b.build(), sp2);
    EXPECT_GE(res.storePrefetchesIssued, 6u);

    SimConfig sp0 = SimConfig::defaults();
    sp0.storePrefetch = StorePrefetch::None;
    SimRig rig2;
    TraceBuilder b2;
    for (int i = 0; i < 6; ++i)
        b2.store(missAddr(i), 2);
    b2.membar();
    fillers(b2, 50);
    SimResult res0 = rig2.run(b2.build(), sp0);
    EXPECT_EQ(res0.storePrefetchesIssued, 0u);
}

TEST(EpochEngine, EpochListenerStreamsCountedEpochs)
{
    TraceBuilder b;
    b.load(missAddr(0), 5);
    fillers(b, 100);
    b.store(missAddr(1), 6);
    b.membar();
    fillers(b, 100);
    Trace t = b.build();

    SimRig rig;
    rig.locks = test::analyzeTrace(t);
    rig.warmFor(t);
    MlpSimulator sim(SimConfig::defaults(), rig.chip, &rig.locks);

    std::vector<EpochRecord> seen;
    sim.setEpochListener([&](const EpochRecord &r) {
        seen.push_back(r);
    });
    MaterializedSource src(t);
    SimResult res = sim.run(src);

    ASSERT_EQ(seen.size(), res.epochs);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].cause, TermCond::WindowFull);
    EXPECT_EQ(seen[0].loads, 1u);
    EXPECT_EQ(seen[1].cause, TermCond::StoreSerialize);
    EXPECT_EQ(seen[1].stores, 1u);
    EXPECT_GT(seen[1].startCycle, seen[0].resolveCycle - 1e-9);
    for (const auto &r : seen)
        EXPECT_DOUBLE_EQ(r.resolveCycle - r.startCycle, 500.0);
}

TEST(EpochEngine, EpochListenerSkipsQuietGenerations)
{
    TraceBuilder b;
    b.store(missAddr(0), 2);
    fillers(b, 700); // fully overlapped
    Trace t = b.build();

    SimRig rig;
    rig.locks = test::analyzeTrace(t);
    rig.warmFor(t);
    MlpSimulator sim(SimConfig::defaults(), rig.chip, &rig.locks);
    uint64_t events = 0;
    sim.setEpochListener([&](const EpochRecord &) { ++events; });
    MaterializedSource src(t);
    SimResult res = sim.run(src);
    EXPECT_EQ(res.epochs, 0u);
    EXPECT_EQ(events, 0u);
}

} // namespace
} // namespace storemlp
