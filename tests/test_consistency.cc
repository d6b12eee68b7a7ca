/**
 * @file
 * Unit tests for memory-model policy and SLE classification.
 */

#include <gtest/gtest.h>

#include "consistency/memory_model.hh"
#include "consistency/sle.hh"
#include "trace/trace.hh"
#include "trace_test_util.hh"

namespace storemlp
{
namespace
{

TEST(ModelDescriptor, PresetNames)
{
    EXPECT_EQ(ModelDescriptor::pc().name, "PC");
    EXPECT_EQ(ModelDescriptor::wc().name, "WC");
    EXPECT_EQ(ModelDescriptor::rmo().name, "RMO");
    EXPECT_EQ(ModelDescriptor::wmm().name, "WMM");
    EXPECT_EQ(ModelDescriptor::sc().name, "SC");
}

TEST(ModelDescriptor, CommitOrderPredicates)
{
    EXPECT_TRUE(ModelDescriptor::pc().inOrderCommit());
    EXPECT_FALSE(ModelDescriptor::wc().inOrderCommit());
    EXPECT_EQ(ModelDescriptor::pc().coalesce, CoalesceScope::Tail);
    EXPECT_EQ(ModelDescriptor::wc().coalesce,
              CoalesceScope::ToYoungestFence);
}

TEST(ModelDescriptor, TraceDialectDrivesWcRewrite)
{
    EXPECT_FALSE(ModelDescriptor::pc().wcTraceRewrite());
    EXPECT_TRUE(ModelDescriptor::wc().wcTraceRewrite());
    EXPECT_FALSE(ModelDescriptor::rmo().wcTraceRewrite());
    EXPECT_TRUE(ModelDescriptor::wmm().wcTraceRewrite());
}

TEST(SerializeEffect, CasaDrainsStoresUnderPc)
{
    SerializeEffect e =
        ModelDescriptor::pc().effectOf(InstClass::AtomicCas);
    EXPECT_TRUE(e.pipelineDrain);
    EXPECT_TRUE(e.storeDrain);
    EXPECT_FALSE(e.storeFence);
}

TEST(SerializeEffect, MembarFullFence)
{
    for (const ModelDescriptor &m :
         {ModelDescriptor::pc(), ModelDescriptor::wc()}) {
        SerializeEffect e = m.effectOf(InstClass::Membar);
        EXPECT_TRUE(e.pipelineDrain) << m.name;
        EXPECT_TRUE(e.storeDrain) << m.name;
    }
}

TEST(SerializeEffect, IsyncDoesNotDrainStores)
{
    // The key WC property (paper 3.3.4): isync does not wait for the
    // store buffer and store queue to drain.
    SerializeEffect e =
        ModelDescriptor::wc().effectOf(InstClass::Isync);
    EXPECT_TRUE(e.pipelineDrain);
    EXPECT_FALSE(e.storeDrain);
}

TEST(SerializeEffect, LwsyncIsQueueFenceOnly)
{
    SerializeEffect e =
        ModelDescriptor::wc().effectOf(InstClass::Lwsync);
    EXPECT_FALSE(e.pipelineDrain);
    EXPECT_FALSE(e.storeDrain);
    EXPECT_TRUE(e.storeFence);
}

TEST(SerializeEffect, PlainInstructionsDoNotSerialize)
{
    for (InstClass c : {InstClass::Alu, InstClass::Load,
                        InstClass::Store, InstClass::Branch,
                        InstClass::LoadLocked, InstClass::StoreCond}) {
        SerializeEffect e = ModelDescriptor::pc().effectOf(c);
        EXPECT_FALSE(e.any()) << instClassName(c);
    }
}

TEST(Sle, DisabledClassifiesEverythingNormal)
{
    Trace t = TraceBuilder().casa(0x100).store(0x100).build();
    LockAnalysis a = test::analyzeTrace(t);
    Sle sle(&a, false);
    EXPECT_EQ(sle.classify(0), Sle::Action::Normal);
    EXPECT_EQ(sle.classify(1), Sle::Action::Normal);
    EXPECT_FALSE(sle.peekElided(0));
}

TEST(Sle, ElidesAcquireAndRelease)
{
    Trace t = TraceBuilder()
        .casa(0x100)
        .load(0x5000)
        .store(0x100)
        .build();
    LockAnalysis a = test::analyzeTrace(t);
    Sle sle(&a, true);
    EXPECT_EQ(sle.classify(0), Sle::Action::AcquireAsLoad);
    EXPECT_EQ(sle.classify(1), Sle::Action::Normal);
    EXPECT_EQ(sle.classify(2), Sle::Action::Nop);
    EXPECT_EQ(sle.elidedAcquires(), 1u);
    EXPECT_EQ(sle.elidedReleases(), 1u);
}

TEST(Sle, ElidesWcAuxInstructions)
{
    Trace t = TraceBuilder()
        .loadLocked(0x100, 2)
        .storeCond(0x100, 2)
        .isync()
        .load(0x5000)
        .lwsync()
        .store(0x100)
        .build();
    LockAnalysis a = test::analyzeTrace(t);
    Sle sle(&a, true);
    EXPECT_EQ(sle.classify(0), Sle::Action::AcquireAsLoad);
    EXPECT_EQ(sle.classify(1), Sle::Action::Nop); // stwcx
    EXPECT_EQ(sle.classify(2), Sle::Action::Nop); // isync
    EXPECT_EQ(sle.classify(4), Sle::Action::Nop); // lwsync
    EXPECT_EQ(sle.classify(5), Sle::Action::Nop); // release
}

TEST(Sle, PeekMatchesClassifyWithoutStats)
{
    Trace t = TraceBuilder().casa(0x100).store(0x100).build();
    LockAnalysis a = test::analyzeTrace(t);
    Sle sle(&a, true);
    EXPECT_TRUE(sle.peekElided(0));
    EXPECT_TRUE(sle.peekElided(1));
    EXPECT_FALSE(sle.peekElided(99));
    EXPECT_EQ(sle.elidedAcquires(), 0u); // peek has no side effects
}

TEST(Sle, UnpairedCasaNotElided)
{
    Trace t = TraceBuilder().casa(0x100).alu().build();
    LockAnalysis a = test::analyzeTrace(t);
    Sle sle(&a, true);
    EXPECT_EQ(sle.classify(0), Sle::Action::Normal);
    EXPECT_FALSE(sle.peekElided(0));
}

} // namespace
} // namespace storemlp
