/**
 * @file
 * TraceSource implementations: cursor slow path, materialized views,
 * on-the-fly generation, and the shared chunk cache front.
 */

#include "trace/trace_source.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <utility>


namespace storemlp
{

// ---------------------------------------------------------------------
// TraceChunk
// ---------------------------------------------------------------------

TraceChunk::LaneRefs
TraceChunk::lanes() const
{
    std::call_once(_lanesOnce,
                   [this] { deriveLanes(data, count, _lanes); });
    return {_lanes.pc.data(), _lanes.addr.data(), _lanes.cls.data(),
            _lanes.meta.data()};
}

// ---------------------------------------------------------------------
// TraceCursor
// ---------------------------------------------------------------------

const TraceRecord *
TraceCursor::slowAt(uint64_t idx)
{
    if (_end && idx >= *_end)
        return nullptr;
    uint64_t k = idx / _chunk;

    std::shared_ptr<const TraceChunk> c;
    auto it = _held.find(k);
    if (it != _held.end()) {
        c = it->second;
    } else {
        c = _src.fetch(k);
        if (!c)
            return nullptr;
        if (c->count < _chunk) // partial chunk: the stream ends here
            _end = c->firstIdx + c->count;
        _held.emplace(k, c);
    }

    if (idx - c->firstIdx >= c->count) {
        _end = c->firstIdx + c->count;
        return nullptr;
    }
    if (c->data != _curData) {
        // The lane view aliases the current chunk; invalidate it so a
        // stale window can never outlive a later trim().
        _view.count = 0;
        _curChunk = c.get();
    }
    _curFirst = c->firstIdx;
    _curCount = c->count;
    _curData = c->data;
    return c->data + (idx - c->firstIdx);
}

const TraceCursor::LaneView *
TraceCursor::slowView(uint64_t idx)
{
    if (!slowAt(idx))
        return nullptr;
    TraceChunk::LaneRefs refs = _curChunk->lanes();
    _view.pc = refs.pc;
    _view.addr = refs.addr;
    _view.cls = refs.cls;
    _view.meta = refs.meta;
    _view.first = _curChunk->firstIdx;
    _view.count = _curChunk->count;
    return &_view;
}

std::shared_ptr<const TraceChunk>
takeChunk(std::vector<TraceRecord> &buf, uint64_t first_idx, uint64_t n)
{
    // `rest` stays small: the producer reserves the next chunk's room
    // when it starts filling it. Reserving here, while the consumer
    // still holds earlier chunks, kept about one more chunk per stream
    // resident.
    std::vector<TraceRecord> rest;
    if (buf.size() > n) {
        rest.assign(buf.begin() + static_cast<ptrdiff_t>(n), buf.end());
        buf.resize(n);
    }
    auto chunk = std::make_shared<const TraceChunk>(first_idx, std::move(buf));
    buf = std::move(rest);
    return chunk;
}

// ---------------------------------------------------------------------
// MaterializedSource
// ---------------------------------------------------------------------

std::shared_ptr<const TraceChunk>
MaterializedSource::fetch(uint64_t chunk_idx)
{
    uint64_t first = chunk_idx * _chunkInsts;
    uint64_t size = _trace->size();
    if (first >= size)
        return nullptr;
    uint64_t n = std::min<uint64_t>(_chunkInsts, size - first);
    return std::make_shared<const TraceChunk>(
        first, _trace->records().data() + first, n);
}

// ---------------------------------------------------------------------
// GeneratorSource
// ---------------------------------------------------------------------

GeneratorSource::GeneratorSource(const WorkloadProfile &profile,
                                 uint64_t seed, uint64_t count,
                                 uint32_t chip_id, uint64_t chunk_insts)
    : TraceSource(chunk_insts), _profile(profile), _seed(seed),
      _count(count), _chipId(chip_id)
{
    restart();
}

void
GeneratorSource::restart()
{
    _gen.emplace(_profile, _seed, _chipId);
    _pending.clear();
    _generated = 0;
    _emitted = 0;
    _nextChunk = 0;
    _genDone = _count == 0;
}

std::shared_ptr<const TraceChunk>
GeneratorSource::produceNext()
{
    // Generate straight into the next chunk's buffer, one generator
    // request at a time. Each request asks for exactly
    // min(space, count - generated), so the generator stops at the
    // same slot boundary as a single generate(count) call would: the
    // chunked stream is bit-identical to the materialized one,
    // overshoot included.
    while (!_genDone && _pending.size() < _chunkInsts) {
        uint64_t want = std::min<uint64_t>(
            _chunkInsts - _pending.size(), _count - _generated);
        size_t before = _pending.size();
        _gen->generateInto(_pending, want);
        _generated += _pending.size() - before;
        if (_generated >= _count)
            _genDone = true;
    }

    if (_pending.empty())
        return nullptr;
    std::shared_ptr<const TraceChunk> chunk =
        takeChunk(_pending, _emitted, _chunkInsts);
    _emitted += chunk->count;
    ++_nextChunk;
    return chunk;
}

std::shared_ptr<const TraceChunk>
GeneratorSource::fetch(uint64_t chunk_idx)
{
    if (chunk_idx < _nextChunk)
        restart(); // backward fetch: deterministic replay from seed
    std::shared_ptr<const TraceChunk> c;
    while (_nextChunk <= chunk_idx) {
        c = produceNext();
        if (!c)
            return nullptr;
    }
    return c;
}

std::optional<uint64_t>
GeneratorSource::knownSize() const
{
    // The generator stops at the first slot boundary >= count, so the
    // total is only known once the stop slot has been emitted.
    if (_genDone)
        return _generated;
    return std::nullopt;
}

std::string
GeneratorSource::fingerprint() const
{
    std::ostringstream os;
    os << _profile.cacheKey() << "|seed=" << _seed << "|n=" << _count
       << "|wc=0|chip=" << _chipId;
    return os.str();
}

// ---------------------------------------------------------------------
// CachedSource
// ---------------------------------------------------------------------

CachedSource::CachedSource(std::unique_ptr<TraceSource> inner,
                           TraceCache &cache, std::string key_base)
    : TraceSource(inner->chunkInsts()), _inner(std::move(inner)),
      _cache(cache), _keyBase(std::move(key_base))
{
    if (_keyBase.empty())
        _keyBase = _inner->fingerprint();
    if (_keyBase.empty()) {
        throw std::invalid_argument(
            "CachedSource: inner source has no fingerprint and no key "
            "base was given");
    }
}

std::shared_ptr<const TraceChunk>
CachedSource::fetch(uint64_t chunk_idx)
{
    std::string key = _keyBase + "#c" + std::to_string(chunk_idx);
    std::shared_ptr<const TraceChunk> c = _cache.getOrBuildChunk(
        key, [&]() -> std::shared_ptr<const TraceChunk> {
            std::lock_guard<std::mutex> lk(_mu);
            std::shared_ptr<const TraceChunk> inner =
                _inner->fetch(chunk_idx);
            if (inner)
                return inner;
            // Cache end-of-stream as an empty chunk so every worker
            // learns the stream length without touching the inner
            // source again.
            return std::make_shared<const TraceChunk>(
                chunk_idx * _chunkInsts, std::vector<TraceRecord>{});
        });
    return c->count ? c : nullptr;
}

std::optional<uint64_t>
CachedSource::knownSize() const
{
    std::lock_guard<std::mutex> lk(_mu);
    return _inner->knownSize();
}

// ---------------------------------------------------------------------
// ReadAheadSource
// ---------------------------------------------------------------------

struct ReadAheadSource::Shared
{
    enum class State : uint8_t
    {
        Idle,    ///< nothing in flight; the consumer owns the inner source
        Pending, ///< the helper owns the inner source, for chunk aheadIdx
        Ready,   ///< the fetch of aheadIdx finished; result below
    };

    std::mutex mu; ///< guards every field below
    std::condition_variable cv;
    State state = State::Idle;
    bool stop = false;
    bool wanted = false; ///< the consumer waits for the pending chunk
    uint64_t live = 0;   ///< handed-out chunks the consumer still holds
    uint64_t aheadIdx = 0;
    std::shared_ptr<const TraceChunk> ahead;
    std::exception_ptr aheadError;

    /** Wait for the pending fetch, if any, to finish. */
    void
    collect(std::unique_lock<std::mutex> &lk)
    {
        if (state == State::Pending) {
            wanted = true;
            cv.notify_all();
            cv.wait(lk, [this] { return state != State::Pending; });
        }
        wanted = false;
    }
};

/**
 * Deleter of a handed-out chunk: frees the chunk first, so the helper
 * it wakes can refill that memory.
 */
class ReadAheadSource::Release
{
  public:
    Release(std::shared_ptr<const TraceChunk> chunk,
            std::shared_ptr<Shared> sh)
        : _chunk(std::move(chunk)), _sh(std::move(sh))
    {
    }

    void
    operator()(const TraceChunk *)
    {
        _chunk.reset();
        {
            std::lock_guard<std::mutex> lk(_sh->mu);
            --_sh->live;
        }
        _sh->cv.notify_all();
    }

  private:
    std::shared_ptr<const TraceChunk> _chunk;
    std::shared_ptr<Shared> _sh;
};

ReadAheadSource::ReadAheadSource(std::unique_ptr<TraceSource> inner)
    : TraceSource(inner->chunkInsts()), _inner(std::move(inner)),
      _sh(std::make_shared<Shared>()), _helper([this] { helperLoop(); })
{
}

ReadAheadSource::~ReadAheadSource()
{
    {
        std::lock_guard<std::mutex> lk(_sh->mu);
        _sh->stop = true;
    }
    _sh->cv.notify_all();
    // The helper finishes the inner fetch it may be in, then exits. A
    // result or error nobody asked for yet is dropped with it.
    _helper.join();
}

void
ReadAheadSource::helperLoop()
{
    Shared &sh = *_sh;
    std::unique_lock<std::mutex> lk(sh.mu);
    for (;;) {
        sh.cv.wait(lk, [&sh] {
            return sh.stop ||
                (sh.state == Shared::State::Pending &&
                 (sh.live <= 1 || sh.wanted));
        });
        if (sh.stop)
            return;
        uint64_t idx = sh.aheadIdx;
        lk.unlock();
        std::shared_ptr<const TraceChunk> c;
        std::exception_ptr err;
        try {
            c = _inner->fetch(idx);
            if (c)
                c->lanes(); // derive here, off the consumer's thread
        } catch (...) {
            err = std::current_exception();
        }
        lk.lock();
        sh.ahead = std::move(c);
        sh.aheadError = err;
        sh.state = Shared::State::Ready;
        sh.cv.notify_all();
    }
}

std::shared_ptr<const TraceChunk>
ReadAheadSource::fetch(uint64_t chunk_idx)
{
    Shared &sh = *_sh;
    std::shared_ptr<const TraceChunk> c;
    bool hit = false;
    {
        std::unique_lock<std::mutex> lk(sh.mu);
        if (sh.state != Shared::State::Idle) {
            sh.collect(lk);
            sh.state = Shared::State::Idle;
            std::exception_ptr err = std::exchange(sh.aheadError, nullptr);
            c = std::move(sh.ahead);
            hit = sh.aheadIdx == chunk_idx;
            if (hit && err)
                std::rethrow_exception(err);
        }
    }
    if (!hit) // no read-ahead for this chunk: fetch it here
        c = _inner->fetch(chunk_idx);
    if (!c)
        return nullptr;

    {
        std::lock_guard<std::mutex> lk(sh.mu);
        ++sh.live;
        // A short chunk ends the stream; only a full one has a
        // successor.
        if (c->count == _chunkInsts) {
            sh.aheadIdx = chunk_idx + 1;
            sh.state = Shared::State::Pending;
        }
    }
    sh.cv.notify_all();
    const TraceChunk *raw = c.get();
    return std::shared_ptr<const TraceChunk>(raw,
                                             Release(std::move(c), _sh));
}

std::optional<uint64_t>
ReadAheadSource::knownSize() const
{
    std::unique_lock<std::mutex> lk(_sh->mu);
    _sh->collect(lk);
    return _inner->knownSize();
}

std::string
ReadAheadSource::fingerprint() const
{
    return _inner->fingerprint();
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

Trace
materializeSource(TraceSource &src)
{
    std::vector<TraceRecord> records;
    if (std::optional<uint64_t> n = src.knownSize())
        records.reserve(*n);
    forEachRecord(src, 0, ~uint64_t{0},
                  [&](const TraceRecord &r) { records.push_back(r); });
    return Trace(std::move(records));
}

} // namespace storemlp
