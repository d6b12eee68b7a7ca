/**
 * @file
 * Trace cache implementation.
 */

#include "trace/trace_cache.hh"

#include "trace/trace_source.hh"
#include "util/parse.hh"

namespace storemlp
{

TraceCache::TraceCache(uint64_t max_bytes) : _maxBytes(max_bytes) {}

uint64_t
TraceCache::defaultMaxBytes()
{
    // Cap at 2^44 bytes worth of megabytes so the *1024*1024 below
    // cannot overflow; throws ConfigError on a malformed value.
    uint64_t mb = envU64Strict("STOREMLP_TRACE_CACHE_MB", 2048, 1,
                               uint64_t{1} << 24);
    return mb * 1024 * 1024;
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    return cache;
}

std::shared_ptr<const TraceChunk>
TraceCache::getOrBuildChunk(const std::string &key,
                            const ChunkBuilder &build, bool *was_hit)
{
    std::shared_future<std::shared_ptr<const TraceChunk>> fut;
    std::promise<std::shared_ptr<const TraceChunk>> promise;
    bool builder = false;

    {
        std::lock_guard<std::mutex> lk(_mu);
        auto it = _entries.find(key);
        if (it != _entries.end()) {
            ++_stats.hits;
            touchLocked(it->second, key);
            fut = it->second.future;
        } else {
            ++_stats.misses;
            builder = true;
            Entry entry;
            entry.future = promise.get_future().share();
            _lru.push_front(key);
            entry.lruIt = _lru.begin();
            fut = entry.future;
            _entries.emplace(key, std::move(entry));
        }
    }
    if (was_hit)
        *was_hit = !builder;

    if (!builder)
        return fut.get(); // blocks while the first builder works

    // Build outside the lock so other keys proceed concurrently.
    std::shared_ptr<const TraceChunk> chunk;
    try {
        chunk = build();
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lk(_mu);
        auto it = _entries.find(key);
        if (it != _entries.end()) {
            _lru.erase(it->second.lruIt);
            _entries.erase(it);
        }
        throw;
    }
    promise.set_value(chunk);

    std::lock_guard<std::mutex> lk(_mu);
    auto it = _entries.find(key);
    if (it != _entries.end()) {
        it->second.bytes = chunk->bytes() + key.size();
        _stats.bytes += it->second.bytes;
        evictLocked();
    }
    return chunk;
}

void
TraceCache::touchLocked(Entry &entry, const std::string &key)
{
    _lru.erase(entry.lruIt);
    _lru.push_front(key);
    entry.lruIt = _lru.begin();
}

void
TraceCache::evictLocked()
{
    // Scan from the LRU tail toward the head, skipping in-flight
    // builds (bytes == 0 until the build lands) rather than stopping
    // at them — one pending build at the tail must not pin the whole
    // cache above budget. The head (most recent, typically the entry
    // just inserted) is never evicted.
    auto victim = _lru.end();
    while (_stats.bytes > _maxBytes && victim != _lru.begin()) {
        --victim;
        if (victim == _lru.begin())
            break;
        auto it = _entries.find(*victim);
        if (it == _entries.end() || it->second.bytes == 0)
            continue;
        _stats.bytes -= it->second.bytes;
        ++_stats.evictions;
        _entries.erase(it);
        victim = _lru.erase(victim);
    }
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lk(_mu);
    for (auto it = _entries.begin(); it != _entries.end();) {
        if (it->second.bytes > 0) {
            _stats.bytes -= it->second.bytes;
            _lru.erase(it->second.lruIt);
            it = _entries.erase(it);
        } else {
            ++it;
        }
    }
}

TraceCacheStats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lk(_mu);
    return _stats;
}

void
TraceCache::resetStats()
{
    std::lock_guard<std::mutex> lk(_mu);
    uint64_t bytes = _stats.bytes;
    _stats = TraceCacheStats{};
    _stats.bytes = bytes;
}

} // namespace storemlp
