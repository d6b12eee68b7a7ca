/**
 * @file
 * Workload profiles: the statistical knobs of the synthetic trace
 * generator, plus the four calibrated commercial profiles standing in
 * for the paper's proprietary traces (see DESIGN.md section 2).
 *
 * Calibration targets come straight from the paper: Table 1 (store
 * frequency and L2 store/load/inst miss rates per 100 instructions),
 * Table 3 (on-chip CPI). Lock density is the free parameter chosen to
 * reproduce the Figure 3 window-termination mix.
 */

#ifndef STOREMLP_TRACE_WORKLOAD_HH
#define STOREMLP_TRACE_WORKLOAD_HH

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/field_table.hh"

namespace storemlp
{

/** Base virtual addresses for the synthetic address-space layout. */
struct AddressMap
{
    static constexpr uint64_t kHotCodeBase = 0x0000000010000000ULL;
    static constexpr uint64_t kColdCodeBase = 0x0000000100000000ULL;
    static constexpr uint64_t kHotDataBase = 0x0000000020000000ULL;
    static constexpr uint64_t kLockBase = 0x0000000030000000ULL;
    /** Per-chip private store-miss regions are offset by chip id. */
    static constexpr uint64_t kPrivateStoreBase = 0x0000004000000000ULL;
    static constexpr uint64_t kPrivateStoreStride = 0x0000001000000000ULL;
    /** One global region shared between all chips. */
    static constexpr uint64_t kSharedStoreBase = 0x0000007000000000ULL;
    /** Cold (streaming) load region, per chip. */
    static constexpr uint64_t kColdLoadBase = 0x0000008000000000ULL;
    static constexpr uint64_t kColdLoadStride = 0x0000001000000000ULL;
};

/**
 * All generator parameters for one workload. Probabilities are per
 * dynamic instruction slot unless stated otherwise.
 */
struct WorkloadProfile
{
    std::string name = "custom";

    // ---- instruction mix (remainder is Alu) ----
    double loadFrac = 0.25;   ///< fraction of loads
    double storeFrac = 0.10;  ///< fraction of stores
    double branchFrac = 0.15; ///< fraction of branches

    // ---- off-chip miss shaping ----
    /** Probability a load is part of a cold (off-chip missing) burst. */
    double loadColdProb = 0.02;
    /** Continuation probability of a cold-load burst (mean 1/(1-p)). */
    double loadBurstCont = 0.60;
    /** Probability a store is part of a cold burst. */
    double storeColdProb = 0.03;
    /** Continuation probability of a cold-store burst. */
    double storeBurstCont = 0.60;
    /** Cold stores written per 64B line before moving to the next. */
    uint32_t coldStoresPerLine = 2;
    /** Consecutive lines per spatial run in the store-miss region. */
    uint32_t storeSpatialRun = 4;
    /** Probability a private store-region run revisits a recently
     *  written area (buffer-pool style reuse: the line was brought in,
     *  modified, evicted — and is now written again). */
    double storeRevisitFrac = 0.55;
    // ---- store flush phases ----
    // Commercial workloads write back buffers/logs in bursts during
    // which no locks are taken and few loads miss (e.g. DB log
    // writers, page flushes, response-buffer writes). These phases
    // produce both the fully-overlapped store misses of Table 2 and
    // the store-queue pressure of Figure 2.
    /** Probability of entering a flush phase, per instruction. */
    double flushPhaseProb = 0.0;
    /** Mean flush phase length in instructions. */
    uint32_t flushLenMean = 250;
    /** Fraction of flush-phase slots that are stores. */
    double flushStoreFrac = 0.35;
    /** Fraction of flush-phase stores that are cold (missing). */
    double flushColdProb = 0.8;

    // Dense store bursts (memset/memcpy-like): store-dominated
    // stretches that back up the store queue AND the store buffer,
    // producing the SB-full window terminations of Figure 3 and the
    // store-queue-size sensitivity of Figure 2.
    double burstPhaseProb = 0.0;  ///< per-instruction entry probability
    uint32_t burstLenMean = 120;  ///< mean burst length (instructions)
    double burstStoreFrac = 0.60; ///< store density inside the burst
    double burstColdProb = 0.50;  ///< cold fraction of burst stores

    /** Probability of starting a cold-code excursion per instruction. */
    double instColdProb = 0.0009;
    /** Continuation probability of multi-line code excursions. */
    double instBurstCont = 0.25;

    // ---- working sets ----
    uint64_t hotDataBytes = 256 * 1024;      ///< L2-resident data
    /** Fraction of hot-data accesses hitting the L1-resident tier. */
    double hotL1Frac = 0.80;
    uint64_t hotL1Bytes = 16 * 1024;         ///< L1-resident data tier
    uint64_t hotCodeBytes = 64 * 1024;       ///< L2-resident code
    /** Instruction fetch loops inside a window of this size... */
    uint64_t hotCodeWindowBytes = 4 * 1024;
    /** ...and jumps to a new window with this per-inst probability. */
    double hotCodeJumpProb = 0.00025;
    uint64_t storeMissRegionBytes = 64ULL << 20; ///< recurring private data
    /** Fraction of cold stores directed at the globally shared region. */
    double sharedStoreFrac = 0.12;
    uint64_t sharedStoreRegionBytes = 16ULL << 20;
    /** Fraction of shared-region runs hitting the hot shared subset
     *  (contended queues/counters — what other chips also write). */
    double sharedHotFrac = 0.8;
    uint64_t sharedHotBytes = 128 * 1024;
    /** Fraction of cold loads reading the shared region (consumers
     *  reading queues/buffers other chips wrote). */
    double sharedLoadFrac = 0.06;

    // ---- locks / critical sections ----
    /** Probability of emitting a critical section per slot. */
    double lockProb = 0.002;
    uint32_t lockCount = 64;       ///< distinct hot lock addresses
    uint32_t csBodyLen = 12;       ///< mean body length (instructions)
    double membarProb = 0.0002;    ///< standalone membar rate

    // ---- branches ----
    /** Fraction of static branches with deterministic outcomes. */
    double easyBranchFrac = 0.85;
    /** Majority-direction probability of the remaining hard branches. */
    double branchBias = 0.70;
    uint32_t staticBranches = 2048;
    /** Probability a branch consumes the most recent load's result. */
    double branchDependsOnLoadProb = 0.15;

    // ---- dependences ----
    /** Probability a source register is drawn from recent producers. */
    double depNearProb = 0.5;

    // ---- paper calibration targets (for tests/EXPERIMENTS.md) ----
    double targetStoresPer100 = 0.0;
    double targetStoreMissPer100 = 0.0;
    double targetLoadMissPer100 = 0.0;
    double targetInstMissPer100 = 0.0;
    double cpiOnChip = 1.0; ///< Table 3 on-chip CPI

    /**
     * Stable fingerprint of every generator knob, used to key sweep
     * trace groups: every workloadProfileFields() entry marked
     * `fingerprint`, in table order. Two profiles with equal
     * fingerprints generate byte-identical traces for the same
     * seed/length/chip. cpiOnChip and the calibration targets do not
     * shape the trace and are left out.
     */
    std::string cacheKey() const;

    // ---- factory functions for the paper's four workloads ----
    static WorkloadProfile database();
    static WorkloadProfile tpcw();
    static WorkloadProfile specjbb();
    static WorkloadProfile specweb();
    /** The four commercial workloads in the paper's order. */
    static std::vector<WorkloadProfile> allCommercial();
    /** A tiny fast profile for unit tests. */
    static WorkloadProfile testTiny();
};

using ProfileMember =
    std::variant<std::string WorkloadProfile::*,
                 uint32_t WorkloadProfile::*, uint64_t WorkloadProfile::*,
                 double WorkloadProfile::*>;
using ProfileField = Field<ProfileMember>;

/** Every profile file key, in save order (the calibration targets are
 *  paper reference values, not knobs, and have no key). */
std::span<const ProfileField> workloadProfileFields();

/** One name the tools, the sweep wire and `base =` accept. */
struct NamedWorkload
{
    const char *name;
    WorkloadProfile (*make)();
    bool paper = true; ///< one of the paper's four (`--workload all`)
};

inline constexpr NamedWorkload kNamedWorkloads[] = {
    {"database", &WorkloadProfile::database},
    {"tpcw", &WorkloadProfile::tpcw},
    {"specjbb", &WorkloadProfile::specjbb},
    {"specweb", &WorkloadProfile::specweb},
    {"tiny", &WorkloadProfile::testTiny, false},
};

/** "database|tpcw|...": every kNamedWorkloads name. */
std::string workloadNameList();

/** The profile `name` selects; ConfigError listing the names on
 *  anything else. */
WorkloadProfile workloadProfileForName(const std::string &name);

} // namespace storemlp

#endif // STOREMLP_TRACE_WORKLOAD_HH
