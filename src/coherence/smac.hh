/**
 * @file
 * Store Miss ACcelerator (SMAC) — the paper's proposed mechanism
 * (Section 3.3.3). A heavily sub-blocked set-associative structure in
 * the L2 subsystem that retains *exclusive ownership* (not data) of
 * lines evicted from the L2 in modified state. A store that misses the
 * L2 but hits an Exclusive sub-block in the SMAC proceeds without the
 * cross-chip invalidation penalty, exactly as in a single-chip system.
 *
 * Default geometry follows the paper: each entry has a tag covering a
 * 2 KB super-block (32 sub-blocks x 64 B lines) with per-sub-block
 * state; an 8K-entry SMAC covers 16 MB of address space in 64 KB of
 * SRAM.
 */

#ifndef STOREMLP_COHERENCE_SMAC_HH
#define STOREMLP_COHERENCE_SMAC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace storemlp
{

class StatsRegistry;

/** SMAC geometry. */
struct SmacConfig
{
    uint32_t entries = 8 * 1024; ///< number of super-block tags
    uint32_t assoc = 8;
    uint32_t subBlocks = 32;     ///< lines per super-block
    uint32_t lineBytes = 64;

    uint64_t superBlockBytes() const
    {
        return uint64_t(subBlocks) * lineBytes;
    }
    /** Address space covered when fully populated. */
    uint64_t coverageBytes() const
    {
        return uint64_t(entries) * superBlockBytes();
    }

    bool operator==(const SmacConfig &) const = default;
};

/**
 * Throw ConfigError unless `config` is a geometry Smac can index: a
 * power-of-two number of sets (checkSetGeometry) of power-of-two
 * super-blocks.
 */
void checkGeometry(const SmacConfig &config);

/**
 * The SMAC. Per-sub-block state distinguishes "never owned" from
 * "ownership lost to a coherence event", which is what Figure 6's
 * right-hand graph reports.
 */
class Smac
{
  public:
    /** Sub-block states. */
    enum class SubState : uint8_t
    {
        Invalid = 0,         ///< no ownership information
        Exclusive,           ///< ownership retained: store misses fly
        CoherenceInvalidated ///< had ownership, lost it to a remote snoop
    };

    explicit Smac(const SmacConfig &config = {});

    /**
     * An L2 line was evicted in Modified state: write the data back to
     * memory but retain the downgraded Exclusive state here.
     */
    void installEvicted(uint64_t line_addr);

    /** Outcome of probing the SMAC for a missing store. */
    struct ProbeResult
    {
        bool hit = false; ///< ownership present: skip invalidation
        /** Tag matched but the sub-block was coherence-invalidated. */
        bool hitInvalidated = false;
    };

    /**
     * A store missed the L2: consult the SMAC. On a hit the line's
     * ownership transfers back to the L2 (sub-block goes Invalid).
     */
    ProbeResult probeStoreMiss(uint64_t line_addr);

    /**
     * Remote snoop (request-to-own or shared) for a line. If the
     * sub-block is Exclusive it is invalidated (and remembered as
     * coherence-invalidated). @return true if ownership was lost.
     */
    bool snoopInvalidate(uint64_t line_addr);

    /** Non-destructive ownership check. */
    bool ownsLine(uint64_t line_addr) const;

    void clear();

    const SmacConfig &config() const { return _config; }

    // ---- statistics ----
    uint64_t installs() const { return _installs; }
    uint64_t probeHits() const { return _probeHits; }
    uint64_t probeMisses() const { return _probeMisses; }
    uint64_t probeHitInvalidated() const { return _probeHitInvalidated; }
    uint64_t coherenceInvalidates() const { return _coherenceInvalidates; }
    uint64_t tagEvictions() const { return _tagEvictions; }
    void resetStats();

    /** Register all SMAC counters under `prefix`. */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix = "smac.") const;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
        std::vector<uint8_t> sub; ///< SubState per sub-block
    };

    uint64_t superAddr(uint64_t line_addr) const;
    uint32_t subIndex(uint64_t line_addr) const;
    uint64_t setIndex(uint64_t super) const;
    Entry *findEntry(uint64_t super);
    const Entry *findEntry(uint64_t super) const;

    SmacConfig _config;
    uint64_t _numSets;
    std::vector<Entry> _entries;
    uint64_t _lruClock = 0;

    uint64_t _installs = 0;
    uint64_t _probeHits = 0;
    uint64_t _probeMisses = 0;
    uint64_t _probeHitInvalidated = 0;
    uint64_t _coherenceInvalidates = 0;
    uint64_t _tagEvictions = 0;
};

} // namespace storemlp

#endif // STOREMLP_COHERENCE_SMAC_HH
