/**
 * @file
 * Keyed, thread-safe cache of decoded trace chunks. A paper figure
 * runs 6-8 configurations against the *same* workload trace (same
 * profile, seed, length, and memory-model rewrite); regenerating it
 * per run is the dominant redundant work in a sweep. Every sweep run
 * streams through a CachedSource, keyed per chunk as fingerprint +
 * "|chunk=" + chunk size + "#c" + chunk index. The cache builds each
 * distinct chunk exactly once — concurrent requesters for the same key
 * block on the first builder — and hands out shared immutable
 * references, so worker threads never copy or mutate trace data.
 */

#ifndef STOREMLP_TRACE_TRACE_CACHE_HH
#define STOREMLP_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace storemlp
{

class TraceChunk;

/** Aggregate cache statistics (monotonic; see resetStats()). */
struct TraceCacheStats
{
    uint64_t hits = 0;       ///< lookups served from an existing entry
    uint64_t misses = 0;     ///< lookups that triggered a build
    uint64_t evictions = 0;  ///< entries dropped by the byte budget
    uint64_t bytes = 0;      ///< resident chunk bytes (approximate)
};

/**
 * Shared chunk store under opaque string keys. Entries are evicted LRU
 * once the byte budget
 * (`STOREMLP_TRACE_CACHE_MB`, default 2048) is exceeded; outstanding
 * shared_ptrs keep evicted chunks alive until released.
 */
class TraceCache
{
  public:
    using ChunkBuilder = std::function<std::shared_ptr<const TraceChunk>()>;

    explicit TraceCache(uint64_t max_bytes = defaultMaxBytes());

    /**
     * Return the chunk for `key`, building it via `build` on the
     * first request. Concurrent callers with the same key wait for
     * the in-flight build instead of duplicating it; a throwing build
     * leaves the key unbuilt. `was_hit`, if non-null, reports whether
     * an entry existed. The builder must not return nullptr —
     * CachedSource caches end-of-stream as an empty chunk.
     */
    std::shared_ptr<const TraceChunk>
    getOrBuildChunk(const std::string &key, const ChunkBuilder &build,
                    bool *was_hit = nullptr);

    /** Drop every completed entry (in-flight builds finish normally). */
    void clear();

    TraceCacheStats stats() const;
    void resetStats();

    /** Byte budget from STOREMLP_TRACE_CACHE_MB (default 2 GiB). */
    static uint64_t defaultMaxBytes();

    /** Process-wide cache shared by benches, tools and tests. */
    static TraceCache &global();

  private:
    struct Entry
    {
        std::shared_future<std::shared_ptr<const TraceChunk>> future;
        uint64_t bytes = 0;                ///< 0 until the build lands
        std::list<std::string>::iterator lruIt;
    };

    void touchLocked(Entry &entry, const std::string &key);
    void evictLocked();

    mutable std::mutex _mu;
    std::unordered_map<std::string, Entry> _entries;
    std::list<std::string> _lru; ///< front = most recently used
    uint64_t _maxBytes;
    TraceCacheStats _stats;
};

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_CACHE_HH
