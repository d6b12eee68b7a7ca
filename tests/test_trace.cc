/**
 * @file
 * Unit tests for the trace representation, builder and binary I/O.
 */

#include <gtest/gtest.h>

#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "trace_test_util.hh"

namespace storemlp
{
namespace
{

TEST(InstClass, LoadStorePredicates)
{
    EXPECT_TRUE(isLoadClass(InstClass::Load));
    EXPECT_TRUE(isLoadClass(InstClass::AtomicCas));
    EXPECT_TRUE(isLoadClass(InstClass::LoadLocked));
    EXPECT_FALSE(isLoadClass(InstClass::Store));

    EXPECT_TRUE(isStoreClass(InstClass::Store));
    EXPECT_TRUE(isStoreClass(InstClass::AtomicCas));
    EXPECT_TRUE(isStoreClass(InstClass::StoreCond));
    EXPECT_FALSE(isStoreClass(InstClass::Load));

    EXPECT_TRUE(isMemClass(InstClass::Load));
    EXPECT_TRUE(isMemClass(InstClass::StoreCond));
    EXPECT_FALSE(isMemClass(InstClass::Alu));
    EXPECT_FALSE(isMemClass(InstClass::Branch));

    EXPECT_TRUE(isBarrierClass(InstClass::Membar));
    EXPECT_TRUE(isBarrierClass(InstClass::Isync));
    EXPECT_TRUE(isBarrierClass(InstClass::Lwsync));
    EXPECT_FALSE(isBarrierClass(InstClass::AtomicCas));
}

TEST(InstClass, Names)
{
    EXPECT_STREQ(instClassName(InstClass::AtomicCas), "casa");
    EXPECT_STREQ(instClassName(InstClass::LoadLocked), "lwarx");
    EXPECT_STREQ(instClassName(InstClass::Lwsync), "lwsync");
}

TEST(TraceBuilder, PcAutoIncrements)
{
    Trace t = TraceBuilder(0x1000).alu().alu().alu().build();
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].pc, 0x1000u);
    EXPECT_EQ(t[1].pc, 0x1004u);
    EXPECT_EQ(t[2].pc, 0x1008u);
}

TEST(TraceBuilder, LoadStoreFields)
{
    Trace t = TraceBuilder()
        .load(0xdead00, 5, 6)
        .store(0xbeef00, 7, 8)
        .build();
    EXPECT_EQ(t[0].cls, InstClass::Load);
    EXPECT_EQ(t[0].addr, 0xdead00u);
    EXPECT_EQ(t[0].dst, 5);
    EXPECT_EQ(t[0].src1, 6);
    EXPECT_EQ(t[1].cls, InstClass::Store);
    EXPECT_EQ(t[1].src2, 7);
    EXPECT_EQ(t[1].src1, 8);
    EXPECT_EQ(t[1].dst, 0);
}

TEST(TraceBuilder, BranchTakenFlag)
{
    Trace t = TraceBuilder().branch(true, 3).branch(false, 4).build();
    EXPECT_TRUE(t[0].taken());
    EXPECT_FALSE(t[1].taken());
}

TEST(TraceBuilder, FlagsAndOverrides)
{
    Trace t = TraceBuilder()
        .casa(0x100, 9).withFlags(kFlagLockAcquire)
        .store(0x100).withFlags(kFlagLockRelease)
        .load(0x200).atPc(0x9000).withSize(4)
        .build();
    EXPECT_TRUE(t[0].lockAcquire());
    EXPECT_TRUE(t[1].lockRelease());
    EXPECT_EQ(t[2].pc, 0x9000u);
    EXPECT_EQ(t[2].size, 4);
}

TEST(TraceBuilder, WcIdiomClasses)
{
    Trace t = TraceBuilder()
        .loadLocked(0x40, 2)
        .storeCond(0x40, 2)
        .isync()
        .lwsync()
        .membar()
        .build();
    EXPECT_EQ(t[0].cls, InstClass::LoadLocked);
    EXPECT_EQ(t[1].cls, InstClass::StoreCond);
    EXPECT_EQ(t[2].cls, InstClass::Isync);
    EXPECT_EQ(t[3].cls, InstClass::Lwsync);
    EXPECT_EQ(t[4].cls, InstClass::Membar);
}

TEST(TraceMix, CountsKinds)
{
    Trace t = TraceBuilder()
        .alu()
        .load(0x10)
        .store(0x20)
        .branch(true)
        .casa(0x30)
        .membar()
        .build();
    Trace::Mix m = t.mix();
    EXPECT_EQ(m.total, 6u);
    EXPECT_EQ(m.loads, 2u);   // load + casa
    EXPECT_EQ(m.stores, 2u);  // store + casa
    EXPECT_EQ(m.branches, 1u);
    EXPECT_EQ(m.atomics, 1u);
    EXPECT_EQ(m.barriers, 1u);
}

TEST(TraceIo, RoundTrip)
{
    Trace t = TraceBuilder(0x4000)
        .load(0x123456789a, 5, 6)
        .store(0xfedcba98, 7)
        .casa(0x42).withFlags(kFlagLockAcquire)
        .branch(true, 9)
        .build();

    // One record per chunk, a chunk size that does not divide the
    // trace, and one chunk.
    for (uint64_t chunk : {uint64_t{1}, uint64_t{3}, uint64_t{1} << 16}) {
        test::TempTraceFile f;
        writeTraceFileV4(f.path, t, "", chunk);
        Trace u = readTraceFile(f.path);

        ASSERT_EQ(u.size(), t.size()) << "chunk " << chunk;
        for (size_t i = 0; i < t.size(); ++i) {
            EXPECT_EQ(u[i].pc, t[i].pc);
            EXPECT_EQ(u[i].addr, t[i].addr);
            EXPECT_EQ(u[i].cls, t[i].cls);
            EXPECT_EQ(u[i].size, t[i].size);
            EXPECT_EQ(u[i].dst, t[i].dst);
            EXPECT_EQ(u[i].src1, t[i].src1);
            EXPECT_EQ(u[i].src2, t[i].src2);
            EXPECT_EQ(u[i].flags, t[i].flags);
        }
    }
}

TEST(TraceIo, EmptyTraceRoundTrip)
{
    test::TempTraceFile f;
    writeTraceFileV4(f.path, Trace(), "");
    Trace u = readTraceFile(f.path);
    EXPECT_TRUE(u.empty());
}

TEST(TraceIo, RejectsBadMagic)
{
    EXPECT_THROW(test::readTraceBytes("NOTATRACE-------------------"),
                 TraceFormatError);
}

TEST(TraceIo, RejectsTruncatedBody)
{
    Trace t = TraceBuilder().alu().alu().build();
    test::TempTraceFile f;
    writeTraceFileV4(f.path, t, "");
    std::string full = test::fileBytes(f.path);
    EXPECT_THROW(test::readTraceBytes(full.substr(0, full.size() - 5)),
                 TraceFormatError);
}

TEST(TraceIo, RejectsInvalidClass)
{
    Trace t = TraceBuilder().alu().build();
    test::TempTraceFile f;
    writeTraceFileV4(f.path, t, "");
    std::string s = test::fileBytes(f.path);
    // Record 0's control byte follows the 77-byte header + index and
    // the 20-byte chunk section header; its low nibble is the class.
    s[77 + 20] = static_cast<char>(s[77 + 20] | 0x0f);
    EXPECT_THROW(test::readTraceBytes(s), TraceFormatError);
}

TEST(TraceIo, FileRoundTrip)
{
    Trace t = TraceBuilder().load(0x10, 1).store(0x20, 2).build();
    std::string path = testing::TempDir() + "/storemlp_trace_test.bin";
    writeTraceFileV4(path, t, "");
    Trace u = readTraceFile(path);
    ASSERT_EQ(u.size(), 2u);
    EXPECT_EQ(u[1].addr, 0x20u);
}

TEST(TraceIo, MissingFileThrows)
{
    EXPECT_THROW(readTraceFile("/nonexistent/path/trace.bin"),
                 TraceFormatError);
}

} // namespace
} // namespace storemlp
