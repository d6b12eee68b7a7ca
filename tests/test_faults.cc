/**
 * @file
 * Fault-containment and input-validation tests: a throwing run inside
 * a parallel sweep degrades to one failed result slot (process alive,
 * other N-1 results delivered), bounded retry recovers transient
 * failures, the trace cache survives throwing builders and does not
 * let an in-flight build pin it above budget, corrupt trace headers
 * fail with TraceFormatError instead of unbounded allocation, and
 * strict numeric parsing rejects the garbage the C library accepts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>

#include "core/sweep.hh"
#include "stats/registry.hh"
#include "trace/generator.hh"
#include "trace/trace_io.hh"
#include "util/error.hh"
#include "util/parse.hh"
#include "trace_test_util.hh"

namespace storemlp
{
namespace
{

// ---- sweep-engine fault injection ------------------------------------

/** N distinguishable specs (marker = measureInsts). */
std::vector<RunSpec>
markedSpecs(size_t n)
{
    std::vector<RunSpec> specs;
    for (size_t k = 0; k < n; ++k) {
        RunSpec spec;
        spec.profile = WorkloadProfile::testTiny();
        spec.config = SimConfig::defaults();
        spec.config.name = "cfg" + std::to_string(k);
        spec.warmupInsts = 100;
        spec.measureInsts = 1000 + k;
        specs.push_back(spec);
    }
    return specs;
}

/**
 * Fault-injection runner: throws for the spec whose marker equals
 * `failing`, otherwise returns a synthetic output echoing the marker.
 */
SweepOptions
faultingOptions(unsigned jobs, uint64_t failing_marker)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.runOverride = [failing_marker](const RunSpec &spec) {
        if (spec.measureInsts == failing_marker)
            throw std::runtime_error("injected fault");
        RunOutput out;
        out.sim.instructions = spec.measureInsts;
        return out;
    };
    return opts;
}

/** Wrap bare specs as planned runs and execute them. */
std::vector<RunOutcome>
executeSpecs(SweepEngine &engine, const std::vector<RunSpec> &specs)
{
    std::vector<PlannedRun> planned(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        planned[i].name = specs[i].config.name;
        planned[i].configName = specs[i].config.name;
        planned[i].spec = specs[i];
    }
    return engine.execute(planned);
}

void
expectOneFailureContained(unsigned jobs)
{
    std::vector<RunSpec> specs = markedSpecs(6);
    const size_t failing = 2;
    SweepEngine engine(faultingOptions(jobs, specs[failing].measureInsts),
                       nullptr);
    std::vector<RunOutcome> results = executeSpecs(engine, specs);

    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("slot " + std::to_string(i));
        if (i == failing) {
            EXPECT_FALSE(results[i].ok);
            EXPECT_NE(results[i].errorMessage.find("run 2"),
                      std::string::npos)
                << results[i].errorMessage;
            EXPECT_NE(results[i].errorMessage.find("cfg2"),
                      std::string::npos)
                << results[i].errorMessage;
            EXPECT_NE(results[i].errorMessage.find("injected fault"),
                      std::string::npos)
                << results[i].errorMessage;
        } else {
            EXPECT_TRUE(results[i].ok) << results[i].errorMessage;
            EXPECT_TRUE(results[i].errorMessage.empty());
            EXPECT_EQ(results[i].output.sim.instructions,
                      specs[i].measureInsts);
        }
    }
    EXPECT_EQ(engine.runsSucceeded(), specs.size() - 1);
    EXPECT_EQ(engine.runsFailed(), 1u);
}

TEST(SweepFaults, OneThrowingRunIsContainedJobs1)
{
    expectOneFailureContained(1);
}

TEST(SweepFaults, OneThrowingRunIsContainedJobs4)
{
    expectOneFailureContained(4);
}

TEST(SweepFaults, FailureCountersLandInExportedStats)
{
    std::vector<RunSpec> specs = markedSpecs(3);
    SweepEngine engine(faultingOptions(1, specs[0].measureInsts),
                       nullptr);
    executeSpecs(engine, specs);

    StatsRegistry reg;
    engine.exportStats(reg); // must not crash on the null cache
    EXPECT_EQ(reg.getCounter("sweep.runs.ok"), 2u);
    EXPECT_EQ(reg.getCounter("sweep.runs.failed"), 1u);
    // The override runs each spec alone: no trace is produced.
    EXPECT_EQ(reg.getCounter("sweep.traceChunksProduced"), 0u);
}

TEST(SweepFaults, BoundedRetryRecoversTransientFailure)
{
    auto remaining = std::make_shared<std::atomic<int>>(2);
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.maxAttempts = 3;
    opts.runOverride = [remaining](const RunSpec &spec) {
        if (remaining->fetch_sub(1) > 0)
            throw std::runtime_error("transient");
        RunOutput out;
        out.sim.instructions = spec.measureInsts;
        return out;
    };
    SweepEngine engine(opts, nullptr);
    std::vector<RunSpec> specs = markedSpecs(1);
    std::vector<RunOutcome> results = executeSpecs(engine, specs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].errorMessage;
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_TRUE(results[0].errorMessage.empty());
    EXPECT_EQ(engine.runRetries(), 2u);
}

TEST(SweepFaults, RetryBudgetExhaustedReportsFailure)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.maxAttempts = 2;
    opts.runOverride = [](const RunSpec &) -> RunOutput {
        throw std::runtime_error("deterministic fault");
    };
    SweepEngine engine(opts, nullptr);
    std::vector<RunSpec> specs = markedSpecs(1);
    std::vector<RunOutcome> results = executeSpecs(engine, specs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_NE(results[0].errorMessage.find("deterministic fault"),
              std::string::npos);
    EXPECT_EQ(engine.runRetries(), 1u);
}

TEST(SweepFaults, RunTasksCapturesPerTaskErrorsAndRunsEveryTask)
{
    std::vector<int> done(8, 0);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < done.size(); ++i) {
        tasks.push_back([&done, i] {
            done[i] = 1;
            if (i == 3)
                throw std::runtime_error("task blew up");
        });
    }
    std::vector<TaskStatus> statuses = parallelForEach(tasks, 4);

    ASSERT_EQ(statuses.size(), tasks.size());
    for (size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i], 1) << "task " << i << " never ran";
    for (size_t i = 0; i < statuses.size(); ++i) {
        if (i == 3) {
            EXPECT_FALSE(statuses[i].ok);
            EXPECT_NE(statuses[i].errorMessage.find("task blew up"),
                      std::string::npos);
            EXPECT_NE(statuses[i].errorMessage.find("run 3"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(statuses[i].ok);
        }
    }
}

// ---- trace-cache fault behaviour -------------------------------------

Trace
tinyTrace(uint64_t seed, uint64_t records)
{
    SyntheticTraceGenerator gen(WorkloadProfile::testTiny(), seed, 0);
    return gen.generate(records);
}

/** An owning chunk of `records` default records at index `first`. */
std::shared_ptr<const TraceChunk>
tinyChunk(uint64_t first, uint64_t records)
{
    return std::make_shared<const TraceChunk>(
        first, std::vector<TraceRecord>(records));
}

TEST(TraceCacheFaults, ThrowingBuilderDoesNotPoisonTheKey)
{
    TraceCache cache(1 << 20);
    EXPECT_THROW(cache.getOrBuildChunk(
                     "k",
                     []() -> std::shared_ptr<const TraceChunk> {
                         throw std::runtime_error("builder fault");
                     }),
                 std::runtime_error);

    // The failed entry is gone: the next request rebuilds (a miss,
    // not a hit blocking forever on a dead future).
    bool hit = true;
    auto chunk = cache.getOrBuildChunk(
        "k", [] { return tinyChunk(0, 500); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(chunk->count, 500u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(TraceCacheFaults, InFlightBuildDoesNotPinCacheAboveBudget)
{
    // Budget fits ~one 4000-record chunk. "inflight" (LRU tail) never
    // completes while "a" and "b" land; eviction must skip past the
    // pending entry and reclaim "a" instead of giving up at the tail.
    TraceCache cache(5000 * sizeof(TraceRecord));
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::thread builder([&] {
        cache.getOrBuildChunk("inflight", [&] {
            gate.wait();
            return tinyChunk(0, 100);
        });
    });
    while (cache.stats().misses < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    cache.getOrBuildChunk("a", [] { return tinyChunk(0, 4000); });
    cache.getOrBuildChunk("b", [] { return tinyChunk(4000, 4000); });

    TraceCacheStats stats = cache.stats();
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_LE(stats.bytes, 5000 * sizeof(TraceRecord));

    release.set_value();
    builder.join();

    // The pending build completed normally after the eviction pass.
    bool hit = false;
    cache.getOrBuildChunk(
        "inflight", [] { return tinyChunk(0, 100); }, &hit);
    EXPECT_TRUE(hit);
}

// ---- trace format validation -----------------------------------------

std::string
v1Header(uint64_t count)
{
    std::string s = "SMLPTRC1";
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>((count >> (8 * i)) & 0xff));
    return s;
}

void
expectTraceError(const std::string &bytes, const std::string &needle)
{
    try {
        test::readTraceBytes(bytes);
        FAIL() << "expected TraceFormatError (" << needle << ")";
    } catch (const TraceFormatError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceFormat, CorruptV1CountRejectedWithoutAllocation)
{
    // A corrupt 8-byte count (2^60 records) must be rejected against
    // the actual stream size before reserve(), not OOM the process.
    expectTraceError(v1Header(uint64_t{1} << 60),
                     "exceeds stream capacity");
}

TEST(TraceFormat, V1CountLargerThanBodyRejected)
{
    std::string bytes = v1Header(3);
    bytes.append(2 * 22, '\0'); // only two records present
    expectTraceError(bytes, "exceeds stream capacity");
}

TEST(TraceFormat, BadMagicRejected)
{
    expectTraceError("NOTATRACE_______", "bad trace magic");
    expectTraceError("", "bad trace magic");
}

TEST(TraceFormat, TruncatedHeaderRejected)
{
    expectTraceError(std::string("SMLPTRC1") + "\x01\x02",
                     "truncated trace header");
}

TEST(TraceFormat, V1InvalidInstructionClassRejected)
{
    std::string bytes = v1Header(1);
    std::string record(22, '\0');
    record[16] = static_cast<char>(0xff); // cls out of range
    bytes += record;
    expectTraceError(bytes, "invalid instruction class");
}

TEST(TraceFormat, RoundTripStillWorksAfterValidation)
{
    Trace trace = tinyTrace(7, 2000);
    test::TempTraceFile v1("v1"), v4("v4");
    writeTraceFile(v1.path, trace);
    writeTraceFileV4(v4.path, trace, "");
    EXPECT_EQ(readTraceFile(v1.path).size(), trace.size());
    EXPECT_EQ(readTraceFile(v4.path).size(), trace.size());
}

// ---- strict numeric parsing ------------------------------------------

TEST(StrictParse, RejectsEverythingStrtoullAccepts)
{
    EXPECT_FALSE(parseU64Strict("").has_value());
    EXPECT_FALSE(parseU64Strict("abc").has_value());
    EXPECT_FALSE(parseU64Strict("10k").has_value());
    EXPECT_FALSE(parseU64Strict("-1").has_value());
    EXPECT_FALSE(parseU64Strict("+5").has_value());
    EXPECT_FALSE(parseU64Strict(" 5").has_value());
    EXPECT_FALSE(parseU64Strict("5 ").has_value());
    EXPECT_FALSE(parseU64Strict("0x10").has_value());
    EXPECT_FALSE(parseU64Strict("1e6").has_value());
    // 2^64 overflows by one digit.
    EXPECT_FALSE(parseU64Strict("18446744073709551616").has_value());

    EXPECT_EQ(parseU64Strict("0"), uint64_t{0});
    EXPECT_EQ(parseU64Strict("42"), uint64_t{42});
    EXPECT_EQ(parseU64Strict("18446744073709551615"), UINT64_MAX);
}

class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : _name(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            _had = true;
            _old = old;
        }
    }
    ~EnvGuard()
    {
        if (_had)
            ::setenv(_name, _old.c_str(), 1);
        else
            ::unsetenv(_name);
    }

  private:
    const char *_name;
    bool _had = false;
    std::string _old;
};

TEST(StrictParse, EnvU64StrictContract)
{
    EnvGuard guard("STOREMLP_TEST_ENV");
    ::unsetenv("STOREMLP_TEST_ENV");
    EXPECT_EQ(envU64Strict("STOREMLP_TEST_ENV", 7), 7u);

    ::setenv("STOREMLP_TEST_ENV", "12", 1);
    EXPECT_EQ(envU64Strict("STOREMLP_TEST_ENV", 7), 12u);

    ::setenv("STOREMLP_TEST_ENV", "12abc", 1);
    EXPECT_THROW(envU64Strict("STOREMLP_TEST_ENV", 7), ConfigError);

    ::setenv("STOREMLP_TEST_ENV", "5", 1);
    EXPECT_THROW(envU64Strict("STOREMLP_TEST_ENV", 7, 10, 20),
                 ConfigError);
}

TEST(StrictParse, SweepJobsEnvIsValidated)
{
    EnvGuard guard("STOREMLP_JOBS");
    ::setenv("STOREMLP_JOBS", "four", 1);
    EXPECT_THROW(SweepEngine::defaultJobs(), ConfigError);
    ::setenv("STOREMLP_JOBS", "0", 1);
    EXPECT_THROW(SweepEngine::defaultJobs(), ConfigError);
    ::setenv("STOREMLP_JOBS", "3", 1);
    EXPECT_EQ(SweepEngine::defaultJobs(), 3u);
}

TEST(StrictParse, TraceCacheBudgetEnvIsValidated)
{
    EnvGuard guard("STOREMLP_TRACE_CACHE_MB");
    ::setenv("STOREMLP_TRACE_CACHE_MB", "2GB", 1);
    EXPECT_THROW(TraceCache::defaultMaxBytes(), ConfigError);
    ::setenv("STOREMLP_TRACE_CACHE_MB", "64", 1);
    EXPECT_EQ(TraceCache::defaultMaxBytes(),
              uint64_t{64} * 1024 * 1024);
}

// ---- null-cache engine -----------------------------------------------

TEST(SweepFaults, NullCacheEngineRunsAndExportsGroupStats)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.runOverride = [](const RunSpec &spec) {
        RunOutput out;
        out.sim.instructions = spec.measureInsts;
        return out;
    };
    // The cache argument is ignored; null is accepted.
    SweepEngine engine(opts, nullptr);

    std::vector<RunSpec> specs = markedSpecs(2);
    std::vector<RunOutcome> results = executeSpecs(engine, specs);
    EXPECT_TRUE(results[0].ok && results[1].ok);

    StatsRegistry reg;
    EXPECT_NO_THROW(engine.exportStats(reg));
    // The specs differ in length, so each is a group of its own.
    EXPECT_EQ(reg.getCounter("sweep.traceGroups"), 2u);
    EXPECT_EQ(reg.getCounter("sweep.traceChunksProduced"), 0u);
    EXPECT_EQ(reg.getCounter("sweep.runs.ok"), 2u);
}

} // namespace
} // namespace storemlp
