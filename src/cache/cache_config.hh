/**
 * @file
 * Cache geometry configuration.
 */

#ifndef STOREMLP_CACHE_CACHE_CONFIG_HH
#define STOREMLP_CACHE_CACHE_CONFIG_HH

#include <cstdint>

namespace storemlp
{

/** Replacement policies for SetAssocCache. */
enum class ReplacementPolicy : uint8_t
{
    Lru,    ///< true LRU (paper default)
    Fifo,   ///< evict by fill order
    Random, ///< pseudo-random (deterministic, seeded by geometry)
};

/** Geometry of one set-associative cache. */
struct CacheConfig
{
    uint64_t sizeBytes = 2 * 1024 * 1024;
    uint32_t assoc = 4;
    uint32_t lineBytes = 64;
    ReplacementPolicy replacement = ReplacementPolicy::Lru;

    uint64_t numSets() const { return sizeBytes / (assoc * lineBytes); }
    uint64_t lineAddr(uint64_t addr) const { return addr & ~(uint64_t(lineBytes) - 1); }

    /** Paper defaults (Section 4.3). */
    static CacheConfig l1Default() { return {32 * 1024, 4, 64}; }
    static CacheConfig l2Default() { return {2 * 1024 * 1024, 4, 64}; }

    bool operator==(const CacheConfig &) const = default;
};

/**
 * Throw ConfigError unless `n` lines (or SMAC entries: `unit`) in
 * `assoc`-way sets make at least one set and a power-of-two number of
 * them: the geometry that SetAssocCache and Smac index by bit mask
 * (their constructors assert it).
 */
void checkSetGeometry(uint64_t n, uint64_t assoc,
                      const char *unit = "lines");

/** checkSetGeometry for a cache whose line size is a power of two. */
void checkGeometry(const CacheConfig &config);

} // namespace storemlp

#endif // STOREMLP_CACHE_CACHE_CONFIG_HH
