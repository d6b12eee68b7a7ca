/**
 * @file
 * Multi-core contention runner: N full epoch engines spread across M
 * chips of the real SnoopBus. Where the standard Runner models remote
 * traffic with statistical peer agents and DualCoreRunner fixes the
 * machine at two cores on one chip, this runner *simulates* every
 * core: each has its own streaming TraceCursor (no whole-trace
 * materialization), its own pipeline state, and shares only the
 * chip-level memory system — so cross-core invalidations, contended
 * locks, and shared SMAC capacity emerge from the simulated accesses
 * instead of being modeled.
 *
 * The engines all run on the calling thread. Each core's stream comes
 * from openRunSource (core/runner.hh), so it is generated one chunk
 * ahead on its own helper thread (a ReadAheadSource per core): a run
 * uses up to cores + 1 threads and its wall time is bound by the
 * engines, not by generation. A run launched on a worker of a
 * parallel pool (`storemlp_sweep --cores` or bench/perf_multicore
 * with more than one job) generates inline instead, because the pool
 * already fills the CPUs. Results do not depend on the threads: every
 * core's record stream is fixed by (profile, seed, core id).
 *
 * Execution is deterministic quantum-interleaved: every core advances
 * `quantum` instructions per turn, in core-id order, over one shared
 * memory system. The quantum sets how finely cache/coherence
 * interactions interleave; it does not model cycle-accurate timing
 * (see docs/MODEL.md, "Multi-core contention").
 */

#ifndef STOREMLP_CORE_MULTI_CORE_HH
#define STOREMLP_CORE_MULTI_CORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "coherence/mesi.hh"
#include "coherence/smac.hh"
#include "core/sim_config.hh"
#include "core/sim_result.hh"
#include "stats/registry.hh"
#include "trace/workload.hh"

namespace storemlp
{

/** Specification of an N-core contention experiment. */
struct MultiRunSpec
{
    WorkloadProfile profile;
    SimConfig config;

    uint64_t seed = 42;
    uint64_t warmupInsts = 400 * 1000;
    uint64_t measureInsts = 800 * 1000;
    /** Instructions each core advances per interleaving turn. */
    uint64_t quantum = 256;

    /** Simulated cores (each a full epoch engine). */
    uint32_t cores = 2;
    /** Chips the cores are spread across (round-robin: core i lives
     *  on chip i % chips). chips > 1 attaches the snoop bus. */
    uint32_t chips = 1;

    /** SMAC configuration, instantiated on every chip (shared by the
     *  chip's cores — real shared-capacity contention). */
    std::optional<SmacConfig> smac;
    /** Cross-chip coherence protocol. */
    CoherenceProtocol protocol = CoherenceProtocol::Mesi;
    /** Pre-fill every chip's L2 (see RunSpec::prefillL2). */
    bool prefillL2 = true;
    /** Cache-geometry override applied to every chip. */
    std::optional<HierarchyConfig> hierarchy;

    // ---- contention knobs (generator overrides) ----
    /** Fraction of cold stores directed at the globally shared region
     *  (overrides profile.sharedStoreFrac): the cross-core
     *  invalidation axis. */
    std::optional<double> sharedStoreFrac;
    /** Critical-section emission probability per slot (overrides
     *  profile.lockProb): the lock-density axis. */
    std::optional<double> lockProb;

    /** Streaming chunk size (instructions); 0 = default. */
    uint64_t chunkInsts = 0;
};

/** Results of an N-core contention experiment. */
struct MultiRunOutput
{
    /** Per-core results, indexed by core id. */
    std::vector<SimResult> cores;
    /** All per-core results merged (totals across the machine). */
    SimResult combined;

    /**
     * Machine-side ledger: the bus (`coherence.*`, chips > 1 only)
     * and every chip's hierarchy/SMAC stats under `chip<m>.`.
     */
    StatsRegistry machine;

    uint32_t chips = 0;
    /** Bus transactions that invalidate remote copies (RdX + Upgr). */
    uint64_t busInvalidations = 0;
    /** Bus requests answered by a dirty remote line (MOESI Owned or
     *  MESI/MOESI Modified cache-to-cache transfers). */
    uint64_t busDirtyTransfers = 0;

    /** Aggregate epochs per 1000 instructions across all cores. */
    double combinedEpochsPer1000() const;
    /** Mean per-core off-chip CPI at the given miss penalty. */
    double meanOffChipCpi(uint32_t miss_latency) const;
    /** Bus invalidations per 1000 measured instructions (all cores). */
    double busInvalidationsPer1000() const;

    /**
     * Register the full run into `reg`: the combined SimResult under
     * the standard names (so existing schema consumers keep working),
     * `multicore.*` topology/bus aggregates, each core's SimResult
     * under `cpu<i>.`, and the machine ledger.
     */
    void exportStats(StatsRegistry &reg) const;
};

/** Runs N cores across M chips with full epoch engines. */
class MultiCoreRunner
{
  public:
    /** Throws ConfigError on a degenerate topology (0 cores, 0 chips,
     *  or more chips than cores). */
    static MultiRunOutput run(const MultiRunSpec &spec);
};

} // namespace storemlp

#endif // STOREMLP_CORE_MULTI_CORE_HH
