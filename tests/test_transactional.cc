/**
 * @file
 * Unit and engine tests for transactional-memory execution of
 * critical sections (the paper's SLE alternative, Section 3.3.4).
 */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "sim_test_util.hh"
#include "consistency/transactional.hh"

namespace storemlp
{
namespace
{

using namespace storemlp::test;

Trace
lockTrace()
{
    uint64_t lock = warmAddr(0);
    TraceBuilder b;
    b.store(missAddr(0), 2);
    b.casa(lock, 3).withFlags(kFlagLockAcquire);
    b.alu();
    b.store(lock, 4).withFlags(kFlagLockRelease);
    fillers(b, 600);
    return b.build();
}

TEST(TransactionalMemory, DisabledClassifiesNormal)
{
    Trace t = lockTrace();
    LockAnalysis a = test::analyzeTrace(t);
    TmConfig cfg; // enabled = false
    TransactionalMemory tm(&a, cfg);
    EXPECT_FALSE(tm.enabled());
    EXPECT_EQ(tm.classify(1), TransactionalMemory::Action::Normal);
    EXPECT_FALSE(tm.peekElided(1));
}

TEST(TransactionalMemory, CommittingSectionElides)
{
    Trace t = lockTrace();
    LockAnalysis a = test::analyzeTrace(t);
    TmConfig cfg;
    cfg.enabled = true;
    cfg.abortProb = 0.0; // every section commits
    TransactionalMemory tm(&a, cfg);
    EXPECT_EQ(tm.sections(), 1u);
    EXPECT_EQ(tm.abortedSections(), 0u);
    EXPECT_EQ(tm.classify(1),
              TransactionalMemory::Action::AcquireAsLoad);
    EXPECT_EQ(tm.classify(3), TransactionalMemory::Action::Nop);
    EXPECT_FALSE(tm.abortsAt(1));
}

TEST(TransactionalMemory, AbortingSectionFallsBackToLock)
{
    Trace t = lockTrace();
    LockAnalysis a = test::analyzeTrace(t);
    TmConfig cfg;
    cfg.enabled = true;
    cfg.abortProb = 1.0; // every section aborts
    TransactionalMemory tm(&a, cfg);
    EXPECT_EQ(tm.abortedSections(), 1u);
    EXPECT_EQ(tm.classify(1), TransactionalMemory::Action::Normal);
    EXPECT_EQ(tm.classify(3), TransactionalMemory::Action::Normal);
    EXPECT_TRUE(tm.abortsAt(1));
    EXPECT_FALSE(tm.abortsAt(3)); // only the acquire charges penalty
}

TEST(TransactionalMemory, AbortDecisionDeterministic)
{
    Trace t = lockTrace();
    LockAnalysis a = test::analyzeTrace(t);
    TmConfig cfg;
    cfg.enabled = true;
    cfg.abortProb = 0.5;
    TransactionalMemory tm1(&a, cfg);
    TransactionalMemory tm2(&a, cfg);
    EXPECT_EQ(tm1.abortsAt(1), tm2.abortsAt(1));
    cfg.seed = 999;
    // Different seeds may flip decisions, but stay internally stable.
    TransactionalMemory tm3(&a, cfg);
    EXPECT_EQ(tm3.abortsAt(1), tm3.abortsAt(1));
}

TEST(TransactionalMemory, ElidesWcIdiom)
{
    uint64_t lock = warmAddr(0);
    TraceBuilder b;
    b.loadLocked(lock, 2);
    b.storeCond(lock, 2);
    b.isync();
    b.alu();
    b.lwsync();
    b.store(lock, 3);
    Trace t = b.build();
    LockAnalysis a = test::analyzeTrace(t);
    TmConfig cfg;
    cfg.enabled = true;
    cfg.abortProb = 0.0;
    TransactionalMemory tm(&a, cfg);
    EXPECT_EQ(tm.classify(0),
              TransactionalMemory::Action::AcquireAsLoad);
    EXPECT_EQ(tm.classify(1), TransactionalMemory::Action::Nop);
    EXPECT_EQ(tm.classify(2), TransactionalMemory::Action::Nop);
    EXPECT_EQ(tm.classify(4), TransactionalMemory::Action::Nop);
    EXPECT_EQ(tm.classify(5), TransactionalMemory::Action::Nop);
}

// ---- engine integration ----

TEST(TmEngine, AllCommitMatchesSle)
{
    SimConfig tm_cfg = SimConfig::defaults();
    tm_cfg.tm.enabled = true;
    tm_cfg.tm.abortProb = 0.0;
    SimRig rig1;
    SimResult tm_res = rig1.run(lockTrace(), tm_cfg);

    SimConfig sle_cfg = SimConfig::defaults();
    sle_cfg.sle = true;
    SimRig rig2;
    SimResult sle_res = rig2.run(lockTrace(), sle_cfg);

    // With no aborts, TM is exactly SLE (the paper's equivalence).
    EXPECT_EQ(tm_res.epochs, sle_res.epochs);
    EXPECT_EQ(tm_res.epochMisses, sle_res.epochMisses);
}

TEST(TmEngine, AllAbortMatchesBaseline)
{
    SimConfig tm_cfg = SimConfig::defaults();
    tm_cfg.tm.enabled = true;
    tm_cfg.tm.abortProb = 1.0;
    SimRig rig1;
    SimResult tm_res = rig1.run(lockTrace(), tm_cfg);

    SimRig rig2;
    SimResult base = rig2.run(lockTrace(), SimConfig::defaults());

    // Aborted sections take the locked path: same epoch structure,
    // plus the abort accounting.
    EXPECT_EQ(tm_res.epochs, base.epochs);
    EXPECT_EQ(tm_res.tmAborts, 1u);
}

TEST(TmEngine, SleAndTmMutuallyExclusive)
{
    SimConfig cfg = SimConfig::defaults();
    cfg.sle = true;
    cfg.tm.enabled = true;
    ChipNode chip(HierarchyConfig{}, 0);
    LockAnalysis locks;
    EXPECT_THROW(MlpSimulator(cfg, chip, &locks),
                 std::invalid_argument);
}

TEST(TmEngine, WorkloadLevelBetweenBaselineAndSle)
{
    // With a moderate abort rate, TM lands between the lock baseline
    // and perfect SLE on a lock-heavy workload.
    auto run_cfg = [](SimConfig cfg) {
        RunSpec spec;
        spec.profile = WorkloadProfile::specjbb();
        spec.config = cfg;
        spec.warmupInsts = 200 * 1000;
        spec.measureInsts = 300 * 1000;
        return test::runMaterialized(spec).sim;
    };
    SimConfig base = SimConfig::defaults();
    SimConfig sle = base;
    sle.sle = true;
    SimConfig tm = base;
    tm.tm.enabled = true;
    tm.tm.abortProb = 0.3;

    SimResult r_base = run_cfg(base);
    SimResult r_sle = run_cfg(sle);
    SimResult r_tm = run_cfg(tm);

    EXPECT_LE(r_sle.epochs, r_tm.epochs);
    EXPECT_LE(r_tm.epochs, r_base.epochs);
    EXPECT_GT(r_tm.tmAborts, 0u);
}

} // namespace
} // namespace storemlp
