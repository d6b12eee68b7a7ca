/**
 * @file
 * Simulator configuration: the paper's default processor (Section
 * 4.3) plus every store-handling and consistency-model knob evaluated
 * in Section 5.
 */

#ifndef STOREMLP_CORE_SIM_CONFIG_HH
#define STOREMLP_CORE_SIM_CONFIG_HH

#include <cstdint>
#include <span>
#include <string>

#include "consistency/memory_model.hh"
#include "consistency/transactional.hh"
#include "util/field_table.hh"

namespace storemlp
{

/** Store prefetching schemes (Section 3.3.2). */
enum class StorePrefetch : uint8_t
{
    None,      ///< Sp0
    AtRetire,  ///< Sp1: prefetch-for-write when the store retires
    AtExecute, ///< Sp2: prefetch-for-write at address generation
};

/** Hardware Scout modes (Section 3.3.5 / Figure 8). */
enum class ScoutMode : uint8_t
{
    Off,        ///< No HWS
    Hws0,       ///< enter on missing load; prefetch loads+insts only
    Hws1,       ///< enter on missing load; also prefetch stores
    Hws2,       ///< also enter on store-queue-full stalls (proposed)
};

/** Every spelling of each StorePrefetch value (see EnumName). */
inline std::span<const EnumName<StorePrefetch>>
enumNames(StorePrefetch)
{
    static constexpr EnumName<StorePrefetch> names[] = {
        {StorePrefetch::None, "sp0", "Sp0", "none"},
        {StorePrefetch::AtRetire, "sp1", "Sp1", "retire"},
        {StorePrefetch::AtExecute, "sp2", "Sp2", "execute"},
    };
    return names;
}

/** Every spelling of each ScoutMode value (see EnumName). */
inline std::span<const EnumName<ScoutMode>>
enumNames(ScoutMode)
{
    static constexpr EnumName<ScoutMode> names[] = {
        {ScoutMode::Off, "off", "NoHWS"},
        {ScoutMode::Hws0, "hws0", "HWS0"},
        {ScoutMode::Hws1, "hws1", "HWS1"},
        {ScoutMode::Hws2, "hws2", "HWS2"},
    };
    return names;
}

/** Full simulator configuration. */
struct SimConfig
{
    std::string name = "default";

    // ---- hardware structure sizes (paper Section 4.3) ----
    /** Accepted for completeness; the epoch model abstracts the
     *  frontend, so the fetch buffer never binds (the paper's MLPsim
     *  models it, but none of the studied effects involve it). */
    uint32_t fetchBufferSize = 32;
    uint32_t issueWindowSize = 32;
    uint32_t robSize = 64;
    uint32_t storeBufferSize = 16;
    uint32_t storeQueueSize = 32;
    uint32_t loadBufferSize = 64;

    // ---- store handling ----
    StorePrefetch storePrefetch = StorePrefetch::AtRetire;
    /** Coalescing granularity in bytes; 0 disables coalescing. */
    uint32_t coalesceBytes = 8;
    /** Unbounded store queue ("Perfect" series sanity checks). */
    bool infiniteStoreQueue = false;
    /** Stores never stall the processor (the figures' bottom
     *  segments: "if stores never stalled"). */
    bool perfectStores = false;

    // ---- memory consistency ----
    /** Declarative model descriptor (defaults to the PC/TSO preset;
     *  see configs and `--model` for the other presets). */
    ModelDescriptor memoryModel;

    // ---- optimizations ----
    bool sle = false;                    ///< Speculative Lock Elision
    /** Transactional memory (SLE with modeled aborts, Section 3.3.4);
     *  mutually exclusive with sle. */
    TmConfig tm;
    bool prefetchPastSerializing = false;
    ScoutMode scout = ScoutMode::Off;

    // ---- timing ----
    uint32_t missLatency = 500; ///< off-chip miss penalty, cycles
    double cpiOnChip = 1.0;     ///< on-chip CPI (profile Table 3 value)
    /** Pipeline refill penalty for resolvable mispredictions. */
    double mispredictPenalty = 12.0;

    /** The paper's default configuration (PC1). */
    static SimConfig defaults();
    /** PC2: default + prefetch past serializing instructions. */
    static SimConfig pc2();
    /** PC3: PC2 + SLE. */
    static SimConfig pc3();
    /** WC1: weak consistency baseline. */
    static SimConfig wc1();
    /** WC2: WC1 + prefetch past serializing instructions. */
    static SimConfig wc2();
    /** WC3: WC2 + SLE. */
    static SimConfig wc3();
    /** RMO1: RMO-like intermediate model baseline. */
    static SimConfig rmo1();
    /** WMM1: WMM-like intermediate model baseline. */
    static SimConfig wmm1();

    /** Returns a copy with a different store prefetch mode. */
    SimConfig withPrefetch(StorePrefetch sp) const;
    /** Returns a copy with a different scout mode. */
    SimConfig withScout(ScoutMode sm) const;

    /** Every field, `name` and the model's display name included. */
    bool operator==(const SimConfig &) const = default;
};

/** Printable names for enums. */
const char *storePrefetchName(StorePrefetch sp);
const char *scoutModeName(ScoutMode sm);

} // namespace storemlp

#endif // STOREMLP_CORE_SIM_CONFIG_HH
