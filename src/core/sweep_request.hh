/**
 * @file
 * Transport-agnostic sweep job API. A `SweepRequest` is the complete,
 * serializable description of a batch experiment — named SimConfigs,
 * axis cross-products (workloads x configs x memory models), run
 * lengths, and execution options — and a `RunOutcome` (sweep.hh) is
 * the per-run result envelope that comes back. The request expands
 * deterministically into `PlannedRun`s; the in-process engine
 * (`SweepEngine::execute`), the `storemlp_sweep` tool, and the
 * networked `storemlp_sweepd`/`storemlp_sweepc` pair all consume the
 * same expansion, so a run submitted over the wire is provably the
 * same computation as one submitted locally.
 *
 * Serialization is plain text built on `config_io`: top-level
 * key=value lines plus one `[config NAME]` ... `[endconfig]` block per
 * configuration whose body is exactly `saveSimConfig` output.
 * `saveSweepRequest(loadSweepRequest(text))` is a fixpoint, and
 * `sweepRequestFingerprint` hashes that canonical text so artifacts
 * can name the exact request that produced them.
 */

#ifndef STOREMLP_CORE_SWEEP_REQUEST_HH
#define STOREMLP_CORE_SWEEP_REQUEST_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "core/sim_config.hh"
#include "stats/stats_json.hh"
#include "trace/workload.hh"

namespace storemlp
{

struct RunOutcome;
struct SweepOptions;

/** One named configuration inside a request. */
struct SweepConfigEntry
{
    std::string name; ///< run-name component (e.g. config file stem)
    SimConfig config;
};

/**
 * A complete, serializable batch-experiment description. Expansion
 * order is fixed: workloads outermost, then configs, then models —
 * exactly the order `storemlp_sweep` has always used, so run names
 * and result ordering are stable across process and wire boundaries.
 */
struct SweepRequest
{
    std::vector<SweepConfigEntry> configs;
    /** Workload names (kNamedWorkloads, see workloadProfileForName). */
    std::vector<std::string> workloads;
    /**
     * Optional memory-model axis: every config is crossed with every
     * entry (preset names or key=val descriptors). Empty keeps each
     * config's own model and adds no run-name suffix.
     */
    std::vector<std::string> models;

    uint64_t warmupInsts = 600 * 1000;
    uint64_t measureInsts = 1000 * 1000;
    uint64_t seed = 42;

    /** Extra attempts per failing run (at-least-once shard retry). */
    unsigned retries = 0;
    /**
     * Accepted and ignored: every sweep run streams. The field and its
     * `streaming` wire key stay so requests from older clients still
     * parse and every request keeps its fingerprint (the canonical
     * text carries the key); e2ebench's layer tracer also sets it.
     */
    bool streaming = false;
    /** Chunk size in instructions; 0 = default, > 2^26 ConfigError. */
    uint64_t chunkInsts = 0;

    /**
     * When non-empty, only the expanded runs with these names execute
     * (unknown names are a ConfigError). This is the shard-retry
     * surface: a client that lost results mid-stream resubmits the
     * same request filtered to the missing run names.
     */
    std::vector<std::string> runFilter;
};

/** One expanded run: identity plus the spec the engine executes. */
struct PlannedRun
{
    std::string name;       ///< unique, e.g. "database_pc1@WC"
    std::string workload;   ///< workload axis value
    std::string configName; ///< config axis value
    std::string model;      ///< model axis value; "" when not crossed
    RunSpec spec;
};

/**
 * Expand a request into its planned runs: the full
 * workloads x configs x models cross-product, filtered by
 * `runFilter` when present. Throws ConfigError on empty config or
 * workload lists, an out-of-range `chunkInsts`, unknown
 * workloads/models, duplicate expanded run names, or filter names
 * that match no run.
 */
std::vector<PlannedRun> expandSweepRuns(const SweepRequest &req);

/** Copy the request's execution options into engine options. */
void applyRequestOptions(SweepOptions &opts, const SweepRequest &req);

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/** Canonical text form (stable key order, exact round trip). */
void saveSweepRequest(std::ostream &os, const SweepRequest &req);
std::string sweepRequestToText(const SweepRequest &req);

/** Parse the text form. Throws ConfigError on unknown keys/garbage. */
SweepRequest loadSweepRequest(std::istream &is);
SweepRequest sweepRequestFromText(const std::string &text);

/**
 * FNV-1a 64 hash of the canonical text, as 16 hex digits. Identifies
 * the request in artifact `source` blocks; ignores `runFilter` so a
 * shard-retry resubmission fingerprints like the original job.
 */
std::string sweepRequestFingerprint(const SweepRequest &req);

// ---------------------------------------------------------------------
// Result artifacts (schemaVersion 2 envelope)
// ---------------------------------------------------------------------

/** Provenance stamped into a streamed result's `source` block. */
struct ArtifactSource
{
    std::string tool; ///< emitting tool (storemlp_sweep / _sweepd)
    std::string host; ///< hostname of the producing machine
    std::string requestFingerprint;
};

/** Best-effort local hostname ("unknown" when unavailable). */
std::string localHostName();

/**
 * Build the schemaVersion-2 envelope for one run: `source` from
 * `src`, `run` identity (name/workload/config/model, seed and run
 * lengths, ok/attempts/wallMs provenance), `meta` carrying the tool
 * and kind ("run") plus the error message for failed runs. The
 * `stats` body (RunOutput::exportStats) stays free of provenance so
 * local and remote artifacts of the same run are bit-identical there.
 */
StatsEnvelope runOutcomeEnvelope(const RunOutcome &outcome,
                                 const ArtifactSource &src,
                                 uint64_t seed, uint64_t warmup,
                                 uint64_t measure);

/** Compact (single-line) JSON document for one run outcome. */
std::string runOutcomeJson(const RunOutcome &outcome,
                           const ArtifactSource &src, uint64_t seed,
                           uint64_t warmup, uint64_t measure);

} // namespace storemlp

#endif // STOREMLP_CORE_SWEEP_REQUEST_HH
