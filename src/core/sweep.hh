/**
 * @file
 * Parallel sweep engine. A paper figure or table is a batch of
 * independent `RunSpec`s — the epoch model shares no mutable state
 * between runs, so the batch is embarrassingly parallel. Like the
 * paper's MLPsim, which runs every configuration over the same
 * traces, the engine runs trace-major, and simulates each distinct
 * machine once:
 *
 *  - Runs whose specs are equal apart from display names (the
 *    config's name and the memory model's; `RunSpec::operator==`
 *    compares the rest) share one simulation. `--models` makes such
 *    runs out of shipped configs that differ only in their model
 *    (pc1/wc1/rmo1/wmm1, pc2/wc2, pc3/wc3). The first of them, the
 *    primary, simulates; the others take its final outcome (after
 *    retries) under their own identity. A run with its own epoch-log
 *    stream differs by that pointer and never shares.
 *  - Primary runs that read one stream (same profile, seed, length and PC->WC
 *    rewrite: `SourceSpec::forRun`) form a trace group.
 *  - A group runs on one worker with one `openRunSource` producer.
 *    Each member has its own cursor, simulator and machine
 *    (Runner::Session) and the members advance round-robin, one chunk
 *    at a time, so each chunk is made once and dropped once the last
 *    member has fetched it. SLE/TM members share one lock analysis,
 *    built from the same chunks as they are made.
 *  - Groups go to a fixed pool of workers (parallelForEach), largest
 *    first, and each runs from start to end on the worker that took
 *    it. Only when there are fewer groups than workers is a group
 *    split into per-worker subgroups, each with its own producer.
 *
 * Resident trace memory is a few chunks per group in flight, not the
 * batch's streams (`sweep.simulations`, `sweep.traceGroups`,
 * `sweep.traceChunksProduced`). Results go into submission-order
 * slots, so tables are deterministic regardless of scheduling.
 *
 * Results are bit-identical across `jobs` values and chunk sizes, and
 * to `Runner::run` of each spec alone: each run owns its machine state
 * and RNG (seeded from the spec), the only shared input is immutable
 * chunks, and any split of a stream into advance() steps gives the
 * same run.
 *
 * Faults are contained per run: an exception thrown by trace
 * construction or by a member's session marks that run's `RunOutcome`
 * as failed (`ok == false`, diagnostic in `errorMessage`) while its
 * group-mates go on; a retry runs it alone from a fresh source. A
 * failed shared simulation fails each run sharing it, each with a
 * RunError naming its own index and config. One
 * corrupt configuration or transient failure never discards the other
 * N-1 results or terminates the process.
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
    /** Chunk size (instructions) of every run's stream; 0 = default. */
    uint64_t chunkInsts = 0;
    /**
     * Attempts per run (>= 1). Values above 1 retry a throwing run,
     * alone from a fresh source — bounded containment for transient
     * failures (an I/O hiccup). Deterministic faults simply fail
     * `maxAttempts` times and are reported once.
     */
    unsigned maxAttempts = 1;
    /**
     * Emit a live progress line (runs and trace groups completed /
     * total) to stderr. Defaults from the environment: on when
     * stderr is a terminal, forced by STOREMLP_PROGRESS=1, silenced
     * by =0.
     */
    bool progress = progressFromEnv();
    /**
     * Test/fault-injection hook: when set, executes each run alone
     * instead of its trace group's sessions, and no runs share a
     * simulation, so the hook sees every run. Lets tests throw from
     * the Nth run (or return synthetic outputs) without touching the
     * production path; null for normal operation.
     */
    std::function<RunOutput(const RunSpec &)> runOverride;

    static bool progressFromEnv();
};

/** Outcome of one `parallelForEach` task. */
struct TaskStatus
{
    bool ok = true;
    std::string errorMessage; ///< diagnostic when !ok
};

/**
 * One completed planned run: identity (so a result streamed over a
 * wire is self-describing) plus the output and per-run observability.
 * This is the result half of the transport-agnostic job API
 * (`SweepRequest` -> `RunOutcome`).
 */
struct RunOutcome
{
    std::string name;       ///< unique run name, e.g. "database_pc1@WC"
    std::string workload;   ///< workload axis value
    std::string configName; ///< config axis value
    std::string model;      ///< model axis value; "" when not crossed

    RunOutput output;
    /**
     * Wall-clock time of this run's own simulation slices: building
     * its machine, its advance() steps and its finish, plus any retry
     * run alone. The group's shared trace production and lock
     * analysis are billed to no run; a run that shares another's
     * simulation reports 0.
     */
    double wallMs = 0.0;
    /** Run completed; when false `output` is default-initialized. */
    bool ok = true;
    /**
     * Attempts consumed (1 unless maxAttempts retried the run); a run
     * sharing another's simulation reports that simulation's attempts.
     */
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
    /**
     * `cache` is ignored: runs share chunks within their trace group,
     * not through a cache. The parameter stays for callers that still
     * pass one, until TraceCache itself goes.
     */
    explicit SweepEngine(SweepOptions opts = {},
                         TraceCache *cache = nullptr);

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
     * chunk size) for this batch. The daemon, the local
     * sweep tool and in-process callers all submit through here.
     */
    std::vector<RunOutcome> execute(const SweepRequest &request,
                                    const RunObserver &observer = {});

    /** Runs that completed / failed across this engine's lifetime. */
    uint64_t runsSucceeded() const { return _runsOk.load(); }
    uint64_t runsFailed() const { return _runsFailed.load(); }
    /** Retry attempts beyond the first, once per simulation. */
    uint64_t runRetries() const { return _runRetries.load(); }
    /**
     * Distinct simulations planned across this engine's lifetime:
     * runs that do not share another run's simulation. Does not
     * depend on timing or `jobs`.
     */
    uint64_t simulations() const { return _simulations.load(); }
    /**
     * Producers run: trace groups, with split subgroups counting
     * singly. Depends only on the batch and `jobs`, not on timing.
     */
    uint64_t traceGroups() const { return _traceGroups.load(); }
    /**
     * Chunks made by those producers; retries run alone and are not
     * counted. Like traceGroups(), fixed by the batch and `jobs`.
     */
    uint64_t traceChunksProduced() const { return _traceChunks.load(); }

    /**
     * Register engine-side observability (`sweep.simulations`,
     * `sweep.traceGroups`, `sweep.traceChunksProduced`,
     * `sweep.runs.*`) into `reg`: the simulation and trace sharing
     * that make batch artifacts cheap, and the fault ledger, are
     * themselves part of the run artifact.
     */
    void exportStats(StatsRegistry &reg) const;

    /** Resolved worker count: STOREMLP_JOBS else hardware_concurrency. */
    static unsigned defaultJobs();

  private:
    /** One attempt of a run alone under `opts`; throws on failure. */
    RunOutput runOnce(const RunSpec &spec, const SweepOptions &opts);
    /** execute() body against explicit options (request overrides). */
    std::vector<RunOutcome>
    executeWith(const SweepOptions &opts,
                const std::vector<PlannedRun> &runs,
                const RunObserver &observer);

    SweepOptions _opts;
    std::atomic<uint64_t> _runsOk{0};
    std::atomic<uint64_t> _runsFailed{0};
    std::atomic<uint64_t> _runRetries{0};
    std::atomic<uint64_t> _simulations{0};
    std::atomic<uint64_t> _traceGroups{0};
    std::atomic<uint64_t> _traceChunks{0};
    /** Effective maxAttempts of the most recent request execute(). */
    std::atomic<unsigned> _lastMaxAttempts{0};
};

} // namespace storemlp

#endif // STOREMLP_CORE_SWEEP_HH
