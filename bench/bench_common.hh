/**
 * @file
 * Shared helpers for the table/figure reproduction binaries. Every
 * bench prints paper-style rows via TextTable, executes its runs
 * through one shared SweepEngine (parallel across STOREMLP_JOBS
 * workers; runs that read one trace share its producer, see
 * core/sweep.hh), and honours environment variables so CI can scale run length:
 *   STOREMLP_WARMUP   warmup instructions  (default 600000)
 *   STOREMLP_MEASURE  measured instructions (default 1000000)
 *   STOREMLP_JOBS     sweep worker threads (default: hardware)
 * See docs/EXPERIMENTS_GUIDE.md for the full knob reference.
 */

#ifndef STOREMLP_BENCH_BENCH_COMMON_HH
#define STOREMLP_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "cli_util.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "stats/table.hh"
#include "trace/workload.hh"

namespace storemlp::bench
{

/**
 * Parse the shared bench flags (--format, --out, --jobs, --warmup,
 * --measure, --chunk-insts, --help); call first in every
 * bench main. `tool` names the binary in JSON artifact metadata.
 * Flags override the corresponding STOREMLP_* environment knobs.
 * Without this call the bench behaves as before (text to stdout).
 */
void benchInit(int argc, char **argv, const char *tool);

/** Selected --format (Text unless benchInit saw otherwise). */
tools::OutFormat benchFormat();

/** Report destination: the --out file, else stdout. */
std::ostream &out();

/**
 * Stream for text-mode prose between tables; discards everything in
 * json/csv modes so structured output stays parseable.
 */
std::ostream &prose();

/** Run-length knobs, overridable via environment. */
struct BenchScale
{
    uint64_t warmup = 600 * 1000;
    uint64_t measure = 1000 * 1000;
    /** SMAC experiments need longer horizons (the store-miss working
     *  set must cycle through the L2 before the SMAC sees reuse);
     *  override with STOREMLP_SMAC_WARMUP / STOREMLP_SMAC_MEASURE. */
    uint64_t smacWarmup = 4000 * 1000;
    uint64_t smacMeasure = 1500 * 1000;

    static BenchScale fromEnv();
};

/** The paper's four workloads. */
std::vector<WorkloadProfile> workloads();

/** Apply scale to a spec. */
void applyScale(RunSpec &spec, const BenchScale &scale);

/**
 * Print a result table in the selected format: text (plus CSV rows
 * with STOREMLP_CSV=1), one compact versioned JSON document
 * (--format=json), or titled CSV (--format=csv).
 */
void printTable(const TextTable &table);

/**
 * Run a whole batch of specs through the shared sweep engine and
 * return outputs in submission order. Benches build their spec list
 * with the same nested loops they later print with, so a simple
 * index counter recovers each result.
 */
std::vector<RunOutput> sweepAll(const std::vector<RunSpec> &specs);

/** Run independent non-RunSpec tasks on the sweep worker pool. */
void sweepTasks(const std::vector<std::function<void()>> &tasks);

} // namespace storemlp::bench

#endif // STOREMLP_BENCH_BENCH_COMMON_HH
