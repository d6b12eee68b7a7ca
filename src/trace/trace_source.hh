/**
 * @file
 * Streaming trace pipeline: the TraceSource abstraction and its chunk
 * cursor. A TraceSource hands out fixed-size immutable chunks of
 * TraceRecords on demand, so consumers (the epoch engine, the lock
 * detector, the Table-1 tallies) hold O(chunk) records resident
 * instead of materializing a whole trace vector:
 *
 *   MaterializedSource  zero-copy chunk views over an in-memory Trace
 *                       (hand-written test traces and references).
 *   GeneratorSource     synthesizes chunks on the fly from a workload
 *                       profile — sweeps over generated traces never
 *                       materialize at all.
 *   StreamingFileSource mmap-backed on-disk traces decoded chunk by
 *                       chunk (trace_file_source.hh).
 *   WcRewriteSource     streaming PC->WC rewrite of an inner source
 *                       (rewriter.hh).
 *   ReadAheadSource     pipelines an inner source exactly one chunk
 *                       ahead of its consumer on a helper thread, which
 *                       also derives the chunk's lanes.
 *
 * A run reads its stream once: Runner::run tallies the Table-1 store
 * count from the chunks the engine's cursor fetches, so only the lock
 * analysis (SLE/TM runs) adds a second pass. A sweep goes one step
 * further: the runs that read one stream share a single producer,
 * whose chunks are fanned out to each run's cursor (core/sweep.hh).
 *
 * Where read-ahead applies: openRunSource() (core/runner.hh) composes
 * every run's stream and alone decides. Generation (plus the WC
 * rewrite) costs about as much as the engine, and decoding an on-disk
 * trace about a third of a file run, so both get a ReadAheadSource:
 * the run waits for max(produce, simulate) per chunk instead of the
 * sum. Streams opened on the worker threads of a parallel pool
 * (onParallelWorker(): sweeps, and multi-core runs fanned out by
 * `storemlp_sweep --cores` or the benchmarks with more than one job)
 * are not pipelined, because the pool's `jobs` workers already fill
 * the cores.
 *
 * Chunking is an execution detail, never a semantic one: any chunk
 * size yields the identical record stream, and the equivalence suite
 * (tests/test_trace_source.cc) holds every source to bit-identical
 * results against the materialized path.
 */

#ifndef STOREMLP_TRACE_TRACE_SOURCE_HH
#define STOREMLP_TRACE_TRACE_SOURCE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "trace/generator.hh"
#include "trace/trace.hh"

namespace storemlp
{

/** Default records per chunk (64K records ~= 2 MB resident). */
inline constexpr uint64_t kDefaultChunkInsts = uint64_t{1} << 16;

/**
 * One immutable run of consecutive trace records. Either owns its
 * records (`storage`) or borrows a view into memory the creator keeps
 * alive (MaterializedSource: the caller's Trace outlives the chunk).
 */
class TraceChunk
{
  public:
    /** Owning chunk: records are moved in. */
    TraceChunk(uint64_t first_idx, std::vector<TraceRecord> records)
        : firstIdx(first_idx), _storage(std::move(records))
    {
        data = _storage.data();
        count = _storage.size();
    }

    /** Borrowed view of records[0..n). */
    TraceChunk(uint64_t first_idx, const TraceRecord *records, uint64_t n)
        : firstIdx(first_idx), data(records), count(n)
    {
    }

    TraceChunk(const TraceChunk &) = delete;
    TraceChunk &operator=(const TraceChunk &) = delete;

    uint64_t firstIdx = 0;          ///< trace index of data[0]
    const TraceRecord *data = nullptr;
    uint64_t count = 0;

    /** Approximate resident bytes (used for cache accounting). */
    uint64_t bytes() const { return count * sizeof(TraceRecord); }

    /**
     * Pointers to this chunk's SoA lanes (see TraceLanes), so the
     * engine's record fetch and the scout's lookahead scan are linear
     * lane walks instead of strided struct reads. Index with
     * `idx - firstIdx`.
     */
    struct LaneRefs
    {
        const uint64_t *pc;
        const uint64_t *addr;
        const uint8_t *cls;
        const uint32_t *meta;
    };

    /**
     * Lanes for this chunk, derived once on first use (thread-safe:
     * a read-ahead helper may derive them while the consumer waits).
     */
    LaneRefs lanes() const;

  private:
    std::vector<TraceRecord> _storage;

    mutable TraceLanes _lanes;
    mutable std::once_flag _lanesOnce;
};

/**
 * Move the first min(n, buf.size()) records of a producer's buffer
 * into an owning chunk at trace index `first_idx`, without copying
 * them. `buf` keeps only the rest (the producer's overshoot past the
 * chunk boundary), in a fresh buffer.
 */
std::shared_ptr<const TraceChunk>
takeChunk(std::vector<TraceRecord> &buf, uint64_t first_idx, uint64_t n);

/**
 * A trace presented as a sequence of fixed-size chunks.
 *
 * Contract:
 *  - every chunk except the last holds exactly `chunkInsts()` records;
 *  - `fetch(k)` returns chunk k, or nullptr once k is past the end;
 *  - chunks are immutable and remain valid while their shared_ptr (and
 *    the source, for borrowed views) lives;
 *  - sequential sources (generator, rewrite) may service a backward
 *    fetch by restarting from scratch — correct, but O(n); random-
 *    access sources (materialized, file) fetch any chunk in O(chunk).
 *
 * Implementations are single-threaded.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    uint64_t chunkInsts() const { return _chunkInsts; }

    /** Chunk `chunk_idx` of the stream; nullptr past the end. */
    virtual std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx)
        = 0;

    /**
     * Total records, when already known (materialized/file sources, or
     * a sequential source that has reached its end). nullopt means
     * "walk the stream to find out".
     */
    virtual std::optional<uint64_t> knownSize() const = 0;

    /**
     * Identity of the record stream: everything that determines the
     * bytes (profile fingerprint, seed, length, rewrite). Empty means
     * "unknown".
     */
    virtual std::string fingerprint() const { return {}; }

    /** The source this stage wraps; nullptr for a producer. */
    virtual const TraceSource *inner() const { return nullptr; }

  protected:
    explicit TraceSource(uint64_t chunk_insts)
        : _chunkInsts(chunk_insts ? chunk_insts : kDefaultChunkInsts)
    {
    }

    uint64_t _chunkInsts;
};

/**
 * Sliding-window reader over a TraceSource: random access by absolute
 * record index with an inline fast path for the chunk under the
 * cursor. Holds every fetched chunk until `trim()` releases those
 * wholly below the consumer's progress point, so lookahead (scout)
 * can read forward without refetching and resident memory stays
 * O(lookahead distance), not O(trace).
 */
class TraceCursor
{
  public:
    explicit TraceCursor(TraceSource &src)
        : _src(src), _chunk(src.chunkInsts()), _end(src.knownSize())
    {
    }

    /** Record at `idx`, or nullptr once `idx` is past the end. */
    const TraceRecord *
    tryAt(uint64_t idx)
    {
        if (idx - _curFirst < _curCount)
            return _curData + (idx - _curFirst);
        return slowAt(idx);
    }

    /**
     * Structure-of-arrays window covering `idx`. Index the lanes with
     * `idx - first`; the view stays valid until the next cursor call.
     * nullptr once `idx` is past the end.
     */
    struct LaneView
    {
        const uint64_t *pc = nullptr;
        const uint64_t *addr = nullptr;
        const uint8_t *cls = nullptr;
        const uint32_t *meta = nullptr;
        uint64_t first = 0;
        uint64_t count = 0;
    };
    const LaneView *
    view(uint64_t idx)
    {
        if (idx - _view.first < _view.count)
            return &_view;
        return slowView(idx);
    }

    /** Drop held chunks that end at or below `keep_from`. */
    void
    trim(uint64_t keep_from)
    {
        while (!_held.empty()) {
            auto it = _held.begin();
            uint64_t chunk_end =
                it->second->firstIdx + it->second->count;
            if (chunk_end > keep_from || it->second->data == _curData)
                break;
            _held.erase(it);
        }
    }

    /** Stream length, once known (source metadata or end-of-stream). */
    std::optional<uint64_t> endIdx() const { return _end; }

  private:
    const TraceRecord *slowAt(uint64_t idx);
    const LaneView *slowView(uint64_t idx);

    TraceSource &_src;
    uint64_t _chunk;

    // fast path: the chunk most recently touched
    uint64_t _curFirst = 0;
    uint64_t _curCount = 0;
    const TraceRecord *_curData = nullptr;
    const TraceChunk *_curChunk = nullptr;
    LaneView _view; ///< lane window over _curChunk (count 0 = unbuilt)

    std::map<uint64_t, std::shared_ptr<const TraceChunk>> _held;
    std::optional<uint64_t> _end;
};

/**
 * Chunk views over an in-memory Trace: zero-copy, random access, and
 * behaviorally identical to indexing the vector. Each chunk derives
 * its own lanes, as every other source's chunks do. The caller
 * guarantees the Trace outlives the chunks.
 */
class MaterializedSource : public TraceSource
{
  public:
    explicit MaterializedSource(const Trace &trace,
                                uint64_t chunk_insts = kDefaultChunkInsts,
                                std::string fingerprint = {})
        : TraceSource(chunk_insts), _trace(&trace),
          _fingerprint(std::move(fingerprint))
    {
    }

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override
    {
        return _trace->size();
    }
    std::string fingerprint() const override { return _fingerprint; }

  private:
    const Trace *_trace;
    std::string _fingerprint;
};

/**
 * Synthesizes chunks on the fly from a workload profile. Emits the
 * exact record stream of `SyntheticTraceGenerator::generate(count)` —
 * including the generator's stop-at-slot-boundary overshoot — without
 * ever materializing it: generation proceeds one chunk ahead of the
 * consumer with O(chunk) carried state. Backward fetches restart the
 * generator from the seed (deterministic, O(n)).
 */
class GeneratorSource : public TraceSource
{
  public:
    GeneratorSource(const WorkloadProfile &profile, uint64_t seed,
                    uint64_t count, uint32_t chip_id = 0,
                    uint64_t chunk_insts = kDefaultChunkInsts);

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override;
    std::string fingerprint() const override;

  private:
    void restart();
    /** Produce chunk `_nextChunk`, or nullptr at end of stream. */
    std::shared_ptr<const TraceChunk> produceNext();

    WorkloadProfile _profile;
    uint64_t _seed;
    uint64_t _count;
    uint32_t _chipId;

    std::optional<SyntheticTraceGenerator> _gen;
    std::vector<TraceRecord> _pending; ///< generated, not yet chunked
    uint64_t _generated = 0;           ///< records emitted by _gen
    uint64_t _emitted = 0;             ///< records handed out in chunks
    uint64_t _nextChunk = 0;
    bool _genDone = false;             ///< _gen reached its stop slot
};

/**
 * Pipelines an inner source one chunk ahead of its consumer: after
 * handing out chunk k, a persistent helper thread fetches chunk k+1
 * from the inner source and derives its lanes while the consumer
 * (the epoch engine) works on chunk k. A streamed run then waits for
 * max(generate, simulate) per chunk instead of their sum.
 *
 * Contract:
 *  - exactly one chunk ahead: the inner source sees the consumer's
 *    fetch sequence plus at most one chunk past its last fetch, and
 *    is never called from two threads at once;
 *  - a fetch of anything other than the chunk in flight (including a
 *    backward one) first collects the in-flight fetch, then forwards;
 *    knownSize() collects first; fingerprint() forwards (it reads
 *    only construction-time state);
 *  - an exception on the helper is rethrown from the consumer's fetch
 *    of that chunk, with its original type;
 *  - the destructor stops and joins the helper, waiting at most for
 *    the one inner fetch in flight.
 *
 * Memory stays at the unpipelined peak: the helper starts on chunk
 * k+1 only once the consumer holds no chunk but k (or is already
 * waiting for k+1), so it refills the memory chunk k-1 just freed
 * instead of adding a chunk per stream. Handed-out chunks may outlive
 * the source.
 *
 * Meant for one consumer of a source whose fetches cost CPU time: a
 * generator, a WC rewrite of one, or a chunk-decoding file source.
 * Not thread-safe for several consumers.
 */
class ReadAheadSource : public TraceSource
{
  public:
    explicit ReadAheadSource(std::unique_ptr<TraceSource> inner);
    ~ReadAheadSource() override;

    ReadAheadSource(const ReadAheadSource &) = delete;
    ReadAheadSource &operator=(const ReadAheadSource &) = delete;

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override;
    std::string fingerprint() const override;
    const TraceSource *inner() const override { return _inner.get(); }

  private:
    struct Shared;
    class Release;

    void helperLoop();

    std::unique_ptr<TraceSource> _inner;
    /** Hand-off state, shared with the handed-out chunks' deleters. */
    std::shared_ptr<Shared> _sh;
    std::thread _helper; ///< last: started after everything it uses
};

/**
 * Walk records [begin, end) of a source, invoking `fn(record)` for
 * each; stops early at end-of-stream. Returns the number of records
 * visited.
 */
template <typename Fn>
uint64_t
forEachRecord(TraceSource &src, uint64_t begin, uint64_t end, Fn &&fn)
{
    TraceCursor cur(src);
    uint64_t i = begin;
    for (; i < end; ++i) {
        const TraceRecord *r = cur.tryAt(i);
        if (!r)
            break;
        fn(*r);
        cur.trim(i);
    }
    return i - begin;
}

/** Materialize a whole source into a Trace (tests, small inputs). */
Trace materializeSource(TraceSource &src);

} // namespace storemlp

#endif // STOREMLP_TRACE_TRACE_SOURCE_HH
