/**
 * @file
 * Parallel sweep engine. A paper figure or table is a batch of
 * independent `RunSpec`s — the epoch model shares no mutable state
 * between runs, so the batch is embarrassingly parallel. The engine
 * executes specs on a fixed pool of worker threads (a shared work
 * queue of spec indices), routes trace construction through a shared
 * `TraceCache` so configurations over the same workload generate the
 * trace once, and writes results into submission-order slots so
 * tables are deterministic regardless of scheduling.
 *
 * Results are bit-identical across `jobs` values: each run owns its
 * machine state and RNG (seeded from the spec), the only shared input
 * is an immutable trace, and result slots are index-addressed.
 *
 * Faults are contained per run: an exception thrown by trace
 * construction or by the runner marks that run's `SweepResult` as
 * failed (`ok == false`, diagnostic in `errorMessage`) and the sweep
 * continues — one corrupt configuration or transient failure never
 * discards the other N-1 results or terminates the process.
 */

#ifndef STOREMLP_CORE_SWEEP_HH
#define STOREMLP_CORE_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "core/sweep_request.hh"
#include "trace/trace_cache.hh"
#include "util/error.hh"

namespace storemlp
{

/** Knobs controlling a sweep. */
struct SweepOptions
{
    /** Worker threads; 0 = STOREMLP_JOBS, else hardware_concurrency. */
    unsigned jobs = 0;
    /** Share input traces across runs via the trace cache. */
    bool useTraceCache = true;
    /**
     * Execute runs against a streaming source (openRunSource)
     * instead of a materialized whole trace: resident trace memory is
     * O(chunk) per worker, and with the trace cache enabled workers
     * share decoded *chunks* rather than whole traces. Results are
     * bit-identical to the materialized path. `runOverride` always
     * takes the materialized path (it is Trace-shaped).
     */
    bool streaming = false;
    /** Chunk size (instructions) for streaming runs; 0 = default. */
    uint64_t chunkInsts = 0;
    /**
     * Attempts per run (>= 1). Values above 1 retry a throwing run —
     * bounded containment for transient failures (a cache build that
     * lost a race with eviction, an I/O hiccup). Deterministic faults
     * simply fail `maxAttempts` times and are reported once.
     */
    unsigned maxAttempts = 1;
    /**
     * Emit a live progress line (runs completed / total, cache hits)
     * to stderr. Defaults from the environment: on when stderr is a
     * terminal, forced by STOREMLP_PROGRESS=1, silenced by =0.
     */
    bool progress = progressFromEnv();
    /**
     * Test/fault-injection hook: when set, executes a run instead of
     * `Runner::run(spec, trace)`. Lets tests throw from the Nth run
     * (or return synthetic outputs) without touching the production
     * path; null for normal operation.
     */
    std::function<RunOutput(const RunSpec &, const Trace *)>
        runOverride;

    static bool progressFromEnv();
};

/** One completed run: its output plus per-run observability. */
struct SweepResult
{
    RunOutput output;
    double wallMs = 0.0;        ///< wall-clock time of this run
    bool traceCacheHit = false; ///< input trace came from the cache
    /** Run completed; when false `output` is default-initialized. */
    bool ok = true;
    /** Attempts consumed (1 unless maxAttempts retried the run). */
    unsigned attempts = 1;
    /** Diagnostic from the last failed attempt when !ok. */
    std::string errorMessage;
};

/** Outcome of one `parallelForEach` task. */
struct TaskStatus
{
    bool ok = true;
    std::string errorMessage; ///< diagnostic when !ok
};

/**
 * One completed planned run: identity (so a result streamed over a
 * wire is self-describing) plus the output and per-run observability
 * that `SweepResult` carried. This is the result half of the
 * transport-agnostic job API (`SweepRequest` -> `RunOutcome`).
 */
struct RunOutcome
{
    std::string name;       ///< unique run name, e.g. "database_pc1@WC"
    std::string workload;   ///< workload axis value
    std::string configName; ///< config axis value
    std::string model;      ///< model axis value; "" when not crossed

    RunOutput output;
    double wallMs = 0.0;        ///< wall-clock time of this run
    bool traceCacheHit = false; ///< input trace came from the cache
    /** Run completed; when false `output` is default-initialized. */
    bool ok = true;
    /** Attempts consumed (1 unless maxAttempts retried the run). */
    unsigned attempts = 1;
    /** Diagnostic from the last failed attempt when !ok. */
    std::string errorMessage;
};

/**
 * Completion callback invoked as each run finishes (any worker may
 * have executed it; invocations are serialized by the engine).
 * `completed` counts finished runs including this one; `total` is the
 * batch size. This is the streaming surface the networked sweep
 * daemon sends results through — and the local tools use the very
 * same hook, so the paths cannot diverge.
 */
using RunObserver =
    std::function<void(const RunOutcome &, size_t completed,
                       size_t total)>;

/**
 * Run independent tasks on a transient worker pool (`jobs` 0 resolves
 * like SweepEngine::defaultJobs). Tasks must not share mutable state.
 * Exceptions are captured per task — every task still executes — and
 * reported in the returned statuses (statuses[i] <-> tasks[i]).
 * With more than one worker, each worker thread runs under a
 * ParallelWorkerScope (util/parallel.hh), so the streams its tasks
 * generate are not pipelined on extra helper threads.
 */
std::vector<TaskStatus>
parallelForEach(const std::vector<std::function<void()>> &tasks,
                unsigned jobs = 0);

/** Executes batches of RunSpecs on a worker pool. */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {},
                         TraceCache *cache = &TraceCache::global());

    /**
     * Primary entry point: execute planned runs; outcomes come back
     * in submission order (outcome[i] corresponds to runs[i], with
     * the run's identity echoed into the outcome). A throwing run is
     * contained: its slot reports `ok == false` with a diagnostic,
     * every other slot is delivered normally. Does not throw for
     * per-run failures. `observer`, when set, fires once per run as
     * it completes (serialized, any completion order) — the streaming
     * result surface.
     */
    std::vector<RunOutcome>
    execute(const std::vector<PlannedRun> &runs,
            const RunObserver &observer = {});

    /**
     * Execute a serializable request: expands the axis cross-product
     * (throws ConfigError on a malformed request, before any run
     * starts) and applies the request's execution options (retries,
     * streaming, chunk size) for this batch. The daemon, the local
     * sweep tool and in-process callers all submit through here.
     */
    std::vector<RunOutcome> execute(const SweepRequest &request,
                                    const RunObserver &observer = {});

    /**
     * DEPRECATED (removal next PR): pre-RunOutcome surface. Wraps
     * execute() over name-less planned runs and strips run identity
     * from the outcomes. New callers use execute().
     */
    std::vector<SweepResult> run(const std::vector<RunSpec> &specs);

    /**
     * DEPRECATED (removal next PR): outputs only, submission order,
     * throwing on the first failed run. New callers use execute()
     * and inspect per-run `ok`.
     */
    std::vector<RunOutput> runOutputs(const std::vector<RunSpec> &specs);

    /**
     * DEPRECATED (removal next PR): generic task fan-out. Forwards to
     * the free `parallelForEach` with this engine's job count — the
     * engine itself now only executes sweep-shaped work.
     */
    std::vector<TaskStatus>
    runTasks(const std::vector<std::function<void()>> &tasks);

    /** Valid only when constructed with a non-null cache. */
    TraceCache &traceCache() { return *_cache; }
    bool hasTraceCache() const { return _cache != nullptr; }
    const SweepOptions &options() const { return _opts; }

    /** Runs that completed / failed across this engine's lifetime. */
    uint64_t runsSucceeded() const { return _runsOk.load(); }
    uint64_t runsFailed() const { return _runsFailed.load(); }
    /** Retry attempts beyond the first, across all runs. */
    uint64_t runRetries() const { return _runRetries.load(); }

    /**
     * Register engine-side observability (`sweep.traceCache.*`,
     * `sweep.runs.*`) into `reg` — the cache sharing that makes batch
     * artifacts cheap, and the fault ledger, are themselves part of
     * the run artifact. Safe without a cache: the traceCache counters
     * are emitted as zeros.
     */
    void exportStats(StatsRegistry &reg) const;

    /** Resolved worker count: STOREMLP_JOBS else hardware_concurrency. */
    static unsigned defaultJobs();

  private:
    unsigned resolveJobs(size_t work_items) const;
    /** One attempt of a run under `opts`; throws on failure. */
    RunOutput runOnce(const RunSpec &spec, const SweepOptions &opts,
                      bool *hit);
    /** execute() body against explicit options (request overrides). */
    std::vector<RunOutcome>
    executeWith(const SweepOptions &opts,
                const std::vector<PlannedRun> &runs,
                const RunObserver &observer);

    SweepOptions _opts;
    TraceCache *_cache;
    std::atomic<uint64_t> _runsOk{0};
    std::atomic<uint64_t> _runsFailed{0};
    std::atomic<uint64_t> _runRetries{0};
    /** Effective maxAttempts of the most recent request execute(). */
    std::atomic<unsigned> _lastMaxAttempts{0};
};

} // namespace storemlp

#endif // STOREMLP_CORE_SWEEP_HH
