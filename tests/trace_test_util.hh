/**
 * @file
 * Shared helpers for trace tests: temp trace files named after the
 * running test, hostile bytes read back through the one trace reader,
 * and lock analysis of a whole in-memory trace.
 */

#ifndef STOREMLP_TESTS_TRACE_TEST_UTIL_HH
#define STOREMLP_TESTS_TRACE_TEST_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "trace/lock_detector.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_source.hh"

namespace storemlp::test
{

/** A temp trace file named after the running test; removed at scope
 *  exit. */
struct TempTraceFile
{
    explicit TempTraceFile(const std::string &tag = "trace")
    {
        const auto *t =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string(t->test_suite_name()) + "." +
            t->name() + "." + tag + ".trc";
        std::replace(name.begin(), name.end(), '/', '_');
        path = ::testing::TempDir() + name;
    }
    ~TempTraceFile() { std::remove(path.c_str()); }

    std::string path;
};

/** The whole contents of file `path`. */
inline std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

/** Decode `bytes` as a trace file, through readTraceFile. */
inline Trace
readTraceBytes(const std::string &bytes)
{
    TempTraceFile f("bytes");
    std::ofstream(f.path, std::ios::binary) << bytes;
    return readTraceFile(f.path);
}

/** Lock analysis of a whole in-memory trace. */
inline LockAnalysis
analyzeTrace(const Trace &trace, uint64_t window = 512)
{
    MaterializedSource src(trace);
    return LockDetector(window).analyze(src);
}

} // namespace storemlp::test

#endif // STOREMLP_TESTS_TRACE_TEST_UTIL_HH
