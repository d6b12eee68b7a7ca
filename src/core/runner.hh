/**
 * @file
 * Experiment runner: the convenience layer that assembles a full
 * experiment — synthetic trace, optional PC->WC rewrite, lock
 * analysis, chips/bus/SMAC, peer traffic — warms it up and measures,
 * mirroring the paper's methodology (Section 4.2): warm the caches on
 * a prefix of the trace, then collect statistics on the remainder.
 *
 * A run is three steps (Runner::Session): build the machine, advance
 * it to a record index, finish. `Runner::run` takes them in one go;
 * the sweep engine interleaves the sessions of every run that reads
 * one stream, chunk by chunk, so the stream is made once for all of
 * them (core/sweep.hh).
 */

#ifndef STOREMLP_CORE_RUNNER_HH
#define STOREMLP_CORE_RUNNER_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>

#include <string>

#include "cache/hierarchy.hh"
#include "coherence/mesi.hh"
#include "coherence/smac.hh"
#include "core/sim_config.hh"
#include "core/sim_result.hh"
#include "stats/registry.hh"
#include "trace/trace.hh"
#include "trace/trace_source.hh"
#include "trace/workload.hh"

namespace storemlp
{

struct LockAnalysis;

/** Everything needed to reproduce one experimental data point. */
struct RunSpec
{
    WorkloadProfile profile;
    SimConfig config;

    uint64_t seed = 42;
    uint64_t warmupInsts = 200 * 1000;
    uint64_t measureInsts = 1000 * 1000;

    /** Number of chips in the multiprocessor (paper default: 2). */
    uint32_t numChips = 1;
    /** SMAC configuration, instantiated on every chip. */
    std::optional<SmacConfig> smac;
    /** Cross-chip coherence protocol (paper assumes MESI). */
    CoherenceProtocol protocol = CoherenceProtocol::Mesi;
    /** Drive remote chips with peer workload traffic. */
    bool peerTraffic = false;
    /**
     * Model the paper's second core per chip: a sibling thread of the
     * same workload sharing the L2, stepped in lockstep with the
     * measured core. Provides the L2 capacity pressure that cycles
     * modified lines into the SMAC. Enabled for the SMAC experiments.
     */
    bool siblingCore = false;
    /**
     * Pre-fill every chip's L2 with placeholder lines before warmup
     * so the cache starts at steady-state occupancy (real systems run
     * with a full L2; without this, short simulations never reach the
     * capacity evictions that populate the SMAC). The paper used 1B
     * warmup instructions for the same reason (Section 4.2).
     */
    bool prefillL2 = true;
    /**
     * Cache-geometry override. Unset means the paper's default
     * hierarchy (32K L1I/L1D, 2MB 4-way L2); when set it applies to
     * every chip, including the L2 prefill sizing.
     */
    std::optional<HierarchyConfig> hierarchy;

    /**
     * Per-epoch event trace sink (`--epoch-log`). When set, one JSON
     * line per counted epoch of the measured interval is written (see
     * EpochLogWriter). Null keeps the epoch listener unset, so the
     * only disabled-path cost is a branch per counted epoch. The
     * stream is borrowed, not owned; parallel sweeps must give each
     * spec its own stream.
     */
    std::ostream *epochLog = nullptr;
};

/** Results of one experiment. */
struct RunOutput
{
    SimResult sim;

    // ---- Table 1 style rates over the measured interval ----
    double storesPer100 = 0.0;   ///< dynamic store frequency
    double storeMissPer100 = 0.0;
    double loadMissPer100 = 0.0;
    double instMissPer100 = 0.0;

    // ---- bandwidth ----
    uint64_t l2Accesses = 0;
    /** Data TLB misses per 100 instructions (2K-entry shared TLB). */
    double tlbMissPer100 = 0.0;

    // ---- SMAC (Figure 6) ----
    uint64_t smacCoherenceInvalidates = 0;
    uint64_t smacProbeHits = 0;
    uint64_t smacProbeHitInvalidated = 0;

    uint64_t peerInstructions = 0;
    /** Chip-level (both cores) off-chip store misses. */
    uint64_t chipStoreMisses = 0;

    /**
     * Machine-side stats registered during the run: the measured
     * chip's hierarchy (`cache.*`), the snoop bus when chips > 1
     * (`coherence.*`) and the SMAC when configured (`smac.*`).
     */
    StatsRegistry machine;

    /** SMAC invalidates per 1000 measured instructions. */
    double smacInvalidatesPer1000() const;
    /** % of the chip's missing stores finding a coherence-
     *  invalidated entry (Figure 6 right panel). */
    double smacHitInvalidPct() const;

    /**
     * Register the full run into `reg`: SimResult stats, run-level
     * rates (`run.*`), chip/SMAC coherence outcomes, and everything
     * in `machine`.
     */
    void exportStats(StatsRegistry &reg) const;
};

/** One run's record stream: an on-disk trace, or a synthetic one. */
struct SourceSpec
{
    std::string tracePath; ///< trace file; empty means generate

    WorkloadProfile profile;
    uint64_t seed = 42;
    uint64_t count = 0;
    uint32_t generatorId = 0; ///< GeneratorSource chip id
    bool wcRewrite = false;   ///< generated streams only

    uint64_t chunkInsts = 0; ///< 0: default; v4 files keep theirs

    /**
     * A run's generated stream: warmupInsts + measureInsts records of
     * the spec's profile and seed, PC->WC rewritten when the spec's
     * memory model asks for the Power dialect (paper Section 4.2).
     */
    static SourceSpec forRun(const RunSpec &spec, uint64_t chunk_insts = 0);
};

/**
 * Build a run's stream: the one place that decides which stages a run
 * gets and whether it is pipelined. Innermost first: the file or
 * generator; the PC->WC rewrite (generated streams only; files replay
 * as written); and a ReadAheadSource, unless the calling thread is a
 * parallel pool worker (onParallelWorker()), whose siblings already
 * fill the CPUs.
 */
std::unique_ptr<TraceSource> openRunSource(const SourceSpec &spec);

/** Orchestrates experiments. */
class Runner
{
  public:
    /**
     * One run in three steps: the constructor builds the machine
     * (chips, bus, SMAC, peers, prefilled L2, simulator), advance()
     * simulates up to a record index — the warmup first, then the
     * measured interval — and finish() runs to the end of the stream
     * and collects the RunOutput. Sessions over separate sources share
     * nothing, so several may be interleaved on one thread.
     *
     * `source` must already reflect the spec's memory model (see
     * run()); `locks` is the stream's lock analysis, required when
     * needsLockAnalysis(spec.config) and otherwise ignored. Both must
     * outlive the session. A geometry the caches or the SMAC cannot
     * index throws ConfigError from the constructor.
     */
    class Session
    {
      public:
        Session(const RunSpec &spec, TraceSource &source,
                const LockAnalysis *locks);
        ~Session();
        Session(const Session &) = delete;
        Session &operator=(const Session &) = delete;

        /**
         * Simulate the records before index `end`. Returns false once
         * the stream has ended short of `end`. Any split of the
         * stream into advance() calls yields the same RunOutput.
         */
        bool advance(uint64_t end);

        /** Run to the end of the stream; collect the run's output. */
        RunOutput finish();

      private:
        struct Machine;
        std::unique_ptr<Machine> _m;
    };

    /** SLE and TM read a LockAnalysis of the stream; nothing else does. */
    static bool needsLockAnalysis(const SimConfig &config);

    /**
     * Run one full epoch-model experiment against a record stream.
     * `source` must already reflect the spec's memory model (i.e. be
     * the stream of SourceSpec::forRun(spec), or an on-disk trace
     * written for that model); openRunSource builds it. This is the
     * one engine entry: resident trace memory is O(chunk) for
     * streaming sources, and a MaterializedSource runs a hand-built
     * in-memory trace the same way.
     *
     * The stream is read once, in chunk order: the Table-1 store
     * tally (`storesPer100`) counts the measured records as the
     * engine's cursor first fetches each chunk. With SLE or TM on,
     * the lock analysis adds one full pass before the run. This is
     * the one-session case: build, advance to the end, finish.
     */
    static RunOutput run(const RunSpec &spec, TraceSource &source);

    /**
     * Cache-only measurement of the paper's Table 1 statistics: no
     * epoch engine, no prefetching — the raw miss rates of the
     * workload against the default hierarchy. The profile overload
     * streams the generator in O(chunk) memory.
     */
    struct MissRates
    {
        double storesPer100 = 0.0;
        double storeMissPer100 = 0.0;
        double loadMissPer100 = 0.0;
        double instMissPer100 = 0.0;
    };
    static MissRates measureMissRates(const WorkloadProfile &profile,
                                      uint64_t seed,
                                      uint64_t warmup_insts,
                                      uint64_t measure_insts);

    /** Same measurement over a prebuilt (shared) trace. */
    static MissRates measureMissRates(const Trace &trace,
                                      uint64_t warmup_insts);
};

} // namespace storemlp

#endif // STOREMLP_CORE_RUNNER_HH
