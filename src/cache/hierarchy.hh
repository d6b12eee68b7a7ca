/**
 * @file
 * Two-level cache hierarchy: split L1 I/D (write-through,
 * no-write-allocate L1D) in front of a shared unified L2, matching the
 * paper's default configuration (Section 4.3). The off-chip boundary
 * is an L2 miss.
 */

#ifndef STOREMLP_CACHE_HIERARCHY_HH
#define STOREMLP_CACHE_HIERARCHY_HH

#include <cstdint>
#include <functional>
#include <string>

#include "cache/set_assoc_cache.hh"

namespace storemlp
{

class StatsRegistry;

/** Where an access was satisfied. */
enum class MissLevel : uint8_t
{
    L1Hit,
    L2Hit,
    OffChip,
};

/** Hierarchy geometry. */
struct HierarchyConfig
{
    CacheConfig l1i = CacheConfig::l1Default();
    CacheConfig l1d = CacheConfig::l1Default();
    CacheConfig l2 = CacheConfig::l2Default();

    bool operator==(const HierarchyConfig &) const = default;
};

/**
 * The on-chip memory system of one core/chip. All classification of
 * "off-chip miss" in the epoch model goes through here.
 */
class CacheHierarchy
{
  public:
    /** Invoked when L2 evicts a line; args: line addr, was dirty,
     *  coherence state byte of the victim. */
    using EvictionListener = std::function<void(uint64_t, bool, uint8_t)>;

    explicit CacheHierarchy(const HierarchyConfig &config = {});

    /**
     * Instruction fetch for the line containing `pc`. Inline fast
     * path: sequential fetches within one line cost a compare.
     */
    MissLevel
    instFetch(uint64_t pc)
    {
        uint64_t line = lineAddr(pc);
        ++_instAccesses;
        if (line == _lastFetchLine)
            return MissLevel::L1Hit;
        return instFetchSlow(line);
    }
    /** Data load. Inline: the L1D-hit fast path is a memo compare. */
    MissLevel
    load(uint64_t addr)
    {
        ++_loadAccesses;
        if (_l1d.access(addr, false, true).hit)
            return MissLevel::L1Hit;
        MissLevel lvl = accessL2(addr, false);
        if (lvl == MissLevel::OffChip)
            ++_loadL2Misses;
        return lvl;
    }
    /**
     * Data store: write-through, no-write-allocate L1D; allocates in
     * L2. Returns OffChip when the line missed the L2.
     */
    MissLevel
    store(uint64_t addr)
    {
        ++_storeAccesses;
        // Write-through no-write-allocate L1D: update on hit, never
        // fill. Stores always reach the (write-allocate) L2.
        _l1d.access(addr, true, false);
        MissLevel lvl = accessL2(addr, true);
        if (lvl == MissLevel::OffChip)
            ++_storeL2Misses;
        return lvl;
    }
    /**
     * Install a line into the L2 (hardware prefetch / scout prefetch).
     * @param for_write fills the line dirty (prefetch-for-write)
     * @return true if the line was already present
     */
    bool prefetchLine(uint64_t addr, bool for_write);

    /** Non-destructive L2 presence check. */
    bool l2Probe(uint64_t addr) const { return _l2.probe(addr); }
    /** Invalidate a line everywhere on chip (coherence snoops). */
    void invalidateLine(uint64_t addr);
    /**
     * Invalidate for a remote request-to-own: ownership transfers to
     * the requester, so the eviction listener (which would retain
     * ownership in the SMAC) is deliberately not notified.
     */
    void invalidateForCoherence(uint64_t addr);

    SetAssocCache &l1i() { return _l1i; }
    SetAssocCache &l1d() { return _l1d; }
    SetAssocCache &l2() { return _l2; }
    const SetAssocCache &l2() const { return _l2; }

    void setEvictionListener(EvictionListener cb) { _onEvict = std::move(cb); }

    const HierarchyConfig &config() const { return _config; }
    uint32_t lineBytes() const { return _config.l2.lineBytes; }
    uint64_t lineAddr(uint64_t addr) const { return _config.l2.lineAddr(addr); }

    // ---- statistics (reset between warmup and measurement) ----
    uint64_t instAccesses() const { return _instAccesses; }
    uint64_t instL2Misses() const { return _instL2Misses; }
    uint64_t loadAccesses() const { return _loadAccesses; }
    uint64_t loadL2Misses() const { return _loadL2Misses; }
    uint64_t storeAccesses() const { return _storeAccesses; }
    uint64_t storeL2Misses() const { return _storeL2Misses; }
    uint64_t l2Accesses() const { return _l2Accesses; }
    uint64_t prefetchesIssued() const { return _prefetchesIssued; }
    void resetStats();

    /** Register all access/miss counters under `prefix`. */
    void exportStats(StatsRegistry &reg,
                     const std::string &prefix = "cache.") const;

  private:
    MissLevel
    accessL2(uint64_t addr, bool is_write)
    {
        ++_l2Accesses;
        AccessResult r = _l2.access(addr, is_write, true);
        if (r.victimValid && _onEvict)
            _onEvict(r.victimLineAddr, r.victimDirty, r.victimState);
        return r.hit ? MissLevel::L2Hit : MissLevel::OffChip;
    }
    /** Line-crossing instruction fetch: L1I then L2. */
    MissLevel instFetchSlow(uint64_t line);

    HierarchyConfig _config;
    SetAssocCache _l1i;
    SetAssocCache _l1d;
    SetAssocCache _l2;
    EvictionListener _onEvict;

    uint64_t _lastFetchLine = ~0ULL; ///< fast path for sequential fetch

    uint64_t _instAccesses = 0;
    uint64_t _instL2Misses = 0;
    uint64_t _loadAccesses = 0;
    uint64_t _loadL2Misses = 0;
    uint64_t _storeAccesses = 0;
    uint64_t _storeL2Misses = 0;
    uint64_t _l2Accesses = 0;
    uint64_t _prefetchesIssued = 0;
};

} // namespace storemlp

#endif // STOREMLP_CACHE_HIERARCHY_HH
