/**
 * @file
 * Tests for TraceFileWriter: records appended in sizes that do not
 * line up with the chunk size round-trip, the file matches the
 * whole-trace writer's byte for byte, and a writer abandoned before
 * commit() leaves the target as it was.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/generator.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "trace_test_util.hh"

namespace storemlp
{
namespace
{

constexpr uint64_t kChunk = 4096;

using test::fileBytes;

/** The file the whole-trace writer writes for `t`. */
std::string
wholeTraceBytes(const Trace &t, const std::string &fp)
{
    test::TempTraceFile f("whole");
    writeTraceFileV4(f.path, t, fp, kChunk);
    return fileBytes(f.path);
}

void
expectSameRecords(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc) << i;
        ASSERT_EQ(a[i].addr, b[i].addr) << i;
        ASSERT_EQ(a[i].cls, b[i].cls) << i;
        ASSERT_EQ(a[i].size, b[i].size) << i;
        ASSERT_EQ(a[i].dst, b[i].dst) << i;
        ASSERT_EQ(a[i].src1, b[i].src1) << i;
        ASSERT_EQ(a[i].src2, b[i].src2) << i;
        ASSERT_EQ(a[i].flags, b[i].flags) << i;
    }
}

/** Exactly `n` generated records (generate() may run past `n`). */
Trace
makeTrace(const WorkloadProfile &profile, uint64_t n)
{
    Trace t = SyntheticTraceGenerator(profile, 3, 0).generate(n);
    return Trace(std::vector<TraceRecord>(t.records().begin(),
                                          t.records().begin() + n));
}

/** Temp files a writer for `path` could leave beside it. */
std::vector<std::string>
tempsBeside(const std::string &path)
{
    std::filesystem::path p(path);
    std::string prefix = p.filename().string() + ".tmp";
    std::vector<std::string> found;
    for (const auto &e :
         std::filesystem::directory_iterator(p.parent_path())) {
        std::string name = e.path().filename().string();
        if (name.rfind(prefix, 0) == 0)
            found.push_back(name);
    }
    return found;
}

TEST(TraceFileWriter, RoundTripsUnalignedAppendsInEveryContainer)
{
    const std::string fp = "writer-test|seed=3";
    const std::string path = ::testing::TempDir() + "writer_rt.trc";
    // An exact multiple of the v4 chunk size, one with a short tail,
    // and an empty trace.
    for (uint64_t n : {3 * kChunk, 3 * kChunk + 1000, uint64_t{0}}) {
        Trace t = makeTrace(WorkloadProfile::tpcw(), n);
        const TraceRecord *data = t.records().data();
        SCOPED_TRACE("records " + std::to_string(n));
        {
            TraceFileWriter w(path, fp, kChunk);
            uint64_t done = 0;
            for (uint64_t step : {uint64_t{1}, kChunk - 1, kChunk + 1,
                                  ~uint64_t{0}}) {
                uint64_t k = std::min(step, t.size() - done);
                w.append(data + done, k);
                done += k;
            }
            w.commit();
        }
        EXPECT_EQ(fileBytes(path), wholeTraceBytes(t, fp));
        expectSameRecords(t, readTraceFile(path));
        StreamingFileSource src(path, kChunk);
        expectSameRecords(t, materializeSource(src));
        EXPECT_TRUE(tempsBeside(path).empty());
    }
    std::remove(path.c_str());
}

TEST(TraceFileWriter, AbandonedWriterLeavesTargetUntouched)
{
    const std::string path = ::testing::TempDir() + "writer_keep.trc";
    Trace t = makeTrace(WorkloadProfile::database(), 20000);
    writeTraceFileV4(path, t, "original");
    const std::string before = fileBytes(path);

    {
        TraceFileWriter w(path, "replacement", kChunk);
        w.append(t.records().data(), t.size());
        // destroyed without commit()
    }
    EXPECT_EQ(fileBytes(path), before);
    EXPECT_TRUE(tempsBeside(path).empty());
    std::remove(path.c_str());
}

TEST(TraceFileWriter, RejectsBadV4ChunkSizeBeforeCreatingFiles)
{
    const std::string path = ::testing::TempDir() + "writer_bad.trc";
    EXPECT_THROW(TraceFileWriter(path, "", 0),
                 TraceFormatError);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(tempsBeside(path).empty());
}

} // namespace
} // namespace storemlp
