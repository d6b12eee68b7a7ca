/**
 * @file
 * Unit tests for the lock detection tool and the PC->WC rewriter
 * (paper Section 4.2 methodology).
 */

#include <gtest/gtest.h>

#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace_test_util.hh"

namespace storemlp
{
namespace
{

TEST(LockDetector, DetectsSimplePcPair)
{
    Trace t = TraceBuilder()
        .casa(0x100, 2)
        .load(0x5000, 3)
        .store(0x6000, 4)
        .store(0x100, 5) // release
        .build();
    LockAnalysis a = test::analyzeTrace(t);
    ASSERT_EQ(a.pairs.size(), 1u);
    EXPECT_EQ(a.pairs[0].acquireIdx, 0u);
    EXPECT_EQ(a.pairs[0].releaseIdx, 3u);
    EXPECT_EQ(a.pairs[0].lockAddr, 0x100u);
    EXPECT_EQ(a.roles[0], LockRole::Acquire);
    EXPECT_EQ(a.roles[3], LockRole::Release);
    EXPECT_EQ(a.roles[1], LockRole::None);
}

TEST(LockDetector, UnmatchedCasaStaysUnpaired)
{
    Trace t = TraceBuilder()
        .casa(0x100, 2) // lock-free CAS, never released
        .load(0x5000, 3)
        .build();
    LockAnalysis a = test::analyzeTrace(t);
    EXPECT_TRUE(a.pairs.empty());
    EXPECT_EQ(a.roles[0], LockRole::None);
}

TEST(LockDetector, WindowLimitRejectsDistantRelease)
{
    TraceBuilder b;
    b.casa(0x100, 2);
    for (int i = 0; i < 20; ++i)
        b.alu();
    b.store(0x100, 3);
    Trace t = b.build();
    LockAnalysis near = test::analyzeTrace(t, 64);
    EXPECT_EQ(near.pairs.size(), 1u);
    LockAnalysis tight = test::analyzeTrace(t, 4);
    EXPECT_TRUE(tight.pairs.empty());
}

TEST(LockDetector, NestedDistinctLocks)
{
    Trace t = TraceBuilder()
        .casa(0x100)
        .casa(0x200)
        .store(0x200) // inner release
        .store(0x100) // outer release
        .build();
    LockAnalysis a = test::analyzeTrace(t);
    ASSERT_EQ(a.pairs.size(), 2u);
}

TEST(LockDetector, SupersededAcquire)
{
    Trace t = TraceBuilder()
        .casa(0x100) // stale, never released before re-acquire
        .casa(0x100)
        .store(0x100)
        .build();
    LockAnalysis a = test::analyzeTrace(t);
    ASSERT_EQ(a.pairs.size(), 1u);
    EXPECT_EQ(a.pairs[0].acquireIdx, 1u);
}

TEST(LockDetector, DetectsWcIdiom)
{
    Trace t = TraceBuilder()
        .loadLocked(0x100, 2)
        .storeCond(0x100, 2)
        .isync()
        .load(0x5000, 3)
        .lwsync()
        .store(0x100, 4)
        .build();
    LockAnalysis a = test::analyzeTrace(t);
    ASSERT_EQ(a.pairs.size(), 1u);
    EXPECT_EQ(a.roles[0], LockRole::Acquire);
    EXPECT_EQ(a.roles[1], LockRole::AcquireAux); // stwcx
    EXPECT_EQ(a.roles[2], LockRole::AcquireAux); // isync
    EXPECT_EQ(a.roles[4], LockRole::ReleaseAux); // lwsync
    EXPECT_EQ(a.roles[5], LockRole::Release);
}

TEST(LockDetector, LwarxWithoutStwcxIgnored)
{
    Trace t = TraceBuilder()
        .loadLocked(0x100, 2)
        .alu()
        .store(0x100, 4)
        .build();
    LockAnalysis a = test::analyzeTrace(t);
    EXPECT_TRUE(a.pairs.empty());
}

TEST(LockDetector, MatchesGeneratorGroundTruth)
{
    WorkloadProfile p = WorkloadProfile::specjbb();
    Trace t = SyntheticTraceGenerator(p, 7).generate(100000);
    LockAnalysis a = test::analyzeTrace(t);

    uint64_t truth_acquires = 0;
    for (uint64_t i = 0; i < t.size(); ++i) {
        if (t[i].lockAcquire()) {
            ++truth_acquires;
            EXPECT_TRUE(a.isAcquire(i))
                << "detector missed acquire at " << i;
        }
        if (t[i].lockRelease()) {
            EXPECT_TRUE(a.isRelease(i))
                << "detector missed release at " << i;
        }
    }
    EXPECT_EQ(a.pairs.size(), truth_acquires);
}

// ---- rewriter ----

TEST(Rewriter, ExpandsLockIdioms)
{
    Trace t = TraceBuilder()
        .alu(1)
        .casa(0x100, 2)
        .load(0x5000, 3)
        .store(0x100, 4) // release
        .alu(5)
        .build();
    Trace wc = TraceRewriter().toWeakConsistency(t);

    // 5 records -> casa becomes 3, release store becomes 2: total 8.
    ASSERT_EQ(wc.size(), 8u);
    EXPECT_EQ(wc[0].cls, InstClass::Alu);
    EXPECT_EQ(wc[1].cls, InstClass::LoadLocked);
    EXPECT_EQ(wc[2].cls, InstClass::StoreCond);
    EXPECT_EQ(wc[3].cls, InstClass::Isync);
    EXPECT_EQ(wc[4].cls, InstClass::Load);
    EXPECT_EQ(wc[5].cls, InstClass::Lwsync);
    EXPECT_EQ(wc[6].cls, InstClass::Store);
    EXPECT_EQ(wc[7].cls, InstClass::Alu);
}

TEST(Rewriter, PreservesAddressesAndRegisters)
{
    Trace t = TraceBuilder()
        .casa(0x140, 9)
        .store(0x140, 7)
        .build();
    Trace wc = TraceRewriter().toWeakConsistency(t);
    EXPECT_EQ(wc[0].addr, 0x140u);
    EXPECT_EQ(wc[0].dst, 9);
    EXPECT_EQ(wc[1].addr, 0x140u);
    EXPECT_EQ(wc[3].cls, InstClass::Lwsync);
    EXPECT_EQ(wc[4].src2, 7);
}

TEST(Rewriter, LeavesUnmatchedCasaAlone)
{
    Trace t = TraceBuilder()
        .casa(0x100, 2)
        .alu()
        .build();
    Trace wc = TraceRewriter().toWeakConsistency(t);
    ASSERT_EQ(wc.size(), 2u);
    EXPECT_EQ(wc[0].cls, InstClass::AtomicCas);
}

TEST(Rewriter, LeavesMembarsAlone)
{
    Trace t = TraceBuilder().membar().alu().build();
    Trace wc = TraceRewriter().toWeakConsistency(t);
    ASSERT_EQ(wc.size(), 2u);
    EXPECT_EQ(wc[0].cls, InstClass::Membar);
}

TEST(Rewriter, RewrittenTraceDetectableAsWcLocks)
{
    WorkloadProfile p = WorkloadProfile::tpcw();
    Trace t = SyntheticTraceGenerator(p, 11).generate(50000);
    LockAnalysis pc = test::analyzeTrace(t);
    Trace wc = TraceRewriter().toWeakConsistency(t, pc);
    LockAnalysis wca = test::analyzeTrace(wc);
    // Every PC lock pair survives as a WC lock pair.
    EXPECT_EQ(wca.pairs.size(), pc.pairs.size());
}

TEST(Rewriter, NonLockRecordsUnchanged)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    p.lockProb = 0.0;
    p.membarProb = 0.0;
    Trace t = SyntheticTraceGenerator(p, 13).generate(10000);
    Trace wc = TraceRewriter().toWeakConsistency(t);
    ASSERT_EQ(wc.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(wc[i].cls, t[i].cls);
        EXPECT_EQ(wc[i].addr, t[i].addr);
    }
}

} // namespace
} // namespace storemlp
