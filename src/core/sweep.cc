/**
 * @file
 * Sweep engine implementation.
 */

#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/parallel.hh"
#include "util/parse.hh"

#ifdef _WIN32
#include <io.h>
#define STOREMLP_ISATTY(fd) _isatty(fd)
#else
#include <unistd.h>
#define STOREMLP_ISATTY(fd) isatty(fd)
#endif

namespace storemlp
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace

bool
SweepOptions::progressFromEnv()
{
    if (const char *env = std::getenv("STOREMLP_PROGRESS"))
        return env[0] && env[0] != '0';
    return STOREMLP_ISATTY(2) != 0;
}

unsigned
SweepEngine::defaultJobs()
{
    // Strict: a malformed or zero STOREMLP_JOBS raises ConfigError
    // instead of silently running serial (or with garbage-as-0).
    uint64_t v = envU64Strict("STOREMLP_JOBS", 0, 1, 4096);
    if (v >= 1)
        return static_cast<unsigned>(v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepEngine::SweepEngine(SweepOptions opts, TraceCache *cache)
    : _opts(opts), _cache(cache)
{
}

unsigned
SweepEngine::resolveJobs(size_t work_items) const
{
    unsigned jobs = _opts.jobs ? _opts.jobs : defaultJobs();
    if (work_items < jobs)
        jobs = static_cast<unsigned>(work_items);
    return jobs ? jobs : 1;
}

RunOutput
SweepEngine::runOnce(const RunSpec &spec, const SweepOptions &opts)
{
    if (opts.runOverride)
        return opts.runOverride(spec);
    // O(chunk) memory per worker; with the cache on, workers share
    // chunks through a CachedSource.
    SourceSpec src_spec = SourceSpec::forRun(spec, opts.chunkInsts);
    src_spec.cache = opts.useTraceCache ? _cache : nullptr;
    std::unique_ptr<TraceSource> src = openRunSource(src_spec);
    return Runner::run(spec, *src);
}

std::vector<RunOutcome>
SweepEngine::executeWith(const SweepOptions &opts,
                         const std::vector<PlannedRun> &runs,
                         const RunObserver &observer)
{
    std::vector<RunOutcome> results(runs.size());
    if (runs.empty())
        return results;

    unsigned jobs = resolveJobs(runs.size());
    unsigned max_attempts = std::max(1u, opts.maxAttempts);
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<uint64_t> failed{0};
    std::mutex sink_mu; // serializes observer calls + progress line
    Clock::time_point t0 = Clock::now();
    // The progress line reports this batch's chunk hits: the cache is
    // shared (and its stats monotonic), so count from a baseline.
    TraceCache *cache = opts.useTraceCache ? _cache : nullptr;
    uint64_t hits0 = cache ? cache->stats().hits : 0;
    auto batchHits = [&] {
        return static_cast<unsigned long long>(
            cache ? cache->stats().hits - hits0 : 0);
    };

    auto worker = [&]() {
        size_t i;
        while ((i = next.fetch_add(1)) < runs.size()) {
            const PlannedRun &run = runs[i];
            RunOutcome &res = results[i];
            res.name = run.name;
            res.workload = run.workload;
            res.configName = run.configName;
            res.model = run.model;
            Clock::time_point rt0 = Clock::now();

            // Fault containment: an exception from trace construction
            // or the runner fails this slot (optionally after bounded
            // retries) instead of escaping the worker thread — where
            // it would hit std::terminate and discard every result.
            std::string err;
            res.ok = false;
            for (unsigned attempt = 1; attempt <= max_attempts;
                 ++attempt) {
                res.attempts = attempt;
                if (attempt > 1)
                    _runRetries.fetch_add(1);
                try {
                    res.output = runOnce(run.spec, opts);
                    res.ok = true;
                } catch (const std::exception &e) {
                    err = e.what();
                } catch (...) {
                    err = "unknown exception";
                }
                if (res.ok)
                    break;
            }
            res.wallMs = msSince(rt0);
            if (res.ok) {
                res.errorMessage.clear();
                _runsOk.fetch_add(1);
            } else {
                res.output = RunOutput{};
                res.errorMessage =
                    RunError(i, run.spec.config.name, err).what();
                _runsFailed.fetch_add(1);
                failed.fetch_add(1);
            }
            size_t d = done.fetch_add(1) + 1;
            if (observer || opts.progress) {
                std::lock_guard<std::mutex> lk(sink_mu);
                // The observer must never fault the run it reports:
                // a throwing result sink (e.g. a dead network
                // connection) is the sink's problem, and the batch
                // still completes with every slot filled.
                if (observer) {
                    try {
                        observer(res, d, runs.size());
                    } catch (...) {
                    }
                }
                if (opts.progress) {
                    std::fprintf(
                        stderr,
                        "\r[sweep] %zu/%zu runs, %llu trace-cache "
                        "chunk hits, %llu failed, %.1fs elapsed ",
                        d, runs.size(), batchHits(),
                        static_cast<unsigned long long>(failed.load()),
                        msSince(t0) / 1000.0);
                    std::fflush(stderr);
                }
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t) {
            pool.emplace_back([&worker] {
                ParallelWorkerScope scope;
                worker();
            });
        }
        for (auto &t : pool)
            t.join();
    }

    if (opts.progress) {
        std::fprintf(stderr,
                     "\r[sweep] %zu runs done in %.1fs (%u jobs, %llu "
                     "trace-cache chunk hits, %llu failed)        \n",
                     runs.size(), msSince(t0) / 1000.0, jobs,
                     batchHits(),
                     static_cast<unsigned long long>(failed.load()));
        std::fflush(stderr);
    }
    return results;
}

std::vector<RunOutcome>
SweepEngine::execute(const std::vector<PlannedRun> &runs,
                     const RunObserver &observer)
{
    return executeWith(_opts, runs, observer);
}

std::vector<RunOutcome>
SweepEngine::execute(const SweepRequest &request,
                     const RunObserver &observer)
{
    // Expansion failures (bad workload/model/filter) surface before
    // any run starts: a malformed request is the submitter's error,
    // not a batch of failed runs.
    std::vector<PlannedRun> runs = expandSweepRuns(request);
    SweepOptions opts = _opts;
    applyRequestOptions(opts, request);
    _lastMaxAttempts.store(std::max(1u, opts.maxAttempts));
    return executeWith(opts, runs, observer);
}

void
SweepEngine::exportStats(StatsRegistry &reg) const
{
    // An engine built without a cache (useTraceCache=false) still
    // exports the full counter set, zeroed, so artifact schemas do
    // not change shape with the configuration.
    TraceCacheStats cs = _cache ? _cache->stats() : TraceCacheStats{};
    reg.counter("sweep.traceCache.hits", cs.hits);
    reg.counter("sweep.traceCache.misses", cs.misses);
    reg.counter("sweep.traceCache.evictions", cs.evictions);
    reg.counter("sweep.traceCache.bytes", cs.bytes);
    reg.counter("sweep.jobs", _opts.jobs ? _opts.jobs : defaultJobs());
    // How the batch was produced: attempts budget per run (request
    // retries override the engine default and are recorded by
    // execute()), so artifacts carry their own retry policy.
    unsigned attempts = _lastMaxAttempts.load();
    reg.counter("sweep.maxAttempts",
                attempts ? attempts : std::max(1u, _opts.maxAttempts));
    reg.counter("sweep.runs.ok", _runsOk.load());
    reg.counter("sweep.runs.failed", _runsFailed.load());
    reg.counter("sweep.runs.retries", _runRetries.load());
}

std::vector<TaskStatus>
parallelForEach(const std::vector<std::function<void()>> &tasks,
                unsigned jobs)
{
    std::vector<TaskStatus> statuses(tasks.size());
    if (tasks.empty())
        return statuses;
    if (!jobs)
        jobs = SweepEngine::defaultJobs();
    if (tasks.size() < jobs)
        jobs = static_cast<unsigned>(tasks.size());
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        size_t i;
        while ((i = next.fetch_add(1)) < tasks.size()) {
            // Same containment as execute(): a throwing task fails
            // its own status slot; the remaining tasks still execute.
            try {
                tasks[i]();
            } catch (const std::exception &e) {
                statuses[i].ok = false;
                statuses[i].errorMessage =
                    RunError(i, "", e.what()).what();
            } catch (...) {
                statuses[i].ok = false;
                statuses[i].errorMessage =
                    RunError(i, "", "unknown exception").what();
            }
        }
    };
    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t) {
            pool.emplace_back([&worker] {
                ParallelWorkerScope scope;
                worker();
            });
        }
        for (auto &t : pool)
            t.join();
    }
    return statuses;
}

} // namespace storemlp
