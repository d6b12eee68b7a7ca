/**
 * @file
 * Lock detection tool. The paper's methodology (Section 4.2): to
 * simulate weak consistency with processor-consistency traces, "a lock
 * detection tool was developed to identify all the lock acquisition
 * and lock release instruction sequences in the traces". This is that
 * tool: it pairs `casa` acquires with the subsequent release store to
 * the same address, purely from the instruction stream — the
 * generator's ground-truth flags are used only by tests to validate
 * the detector.
 *
 * One detector core (StreamingLockDetector) reads each record's class
 * and address once, in trace order, with O(window) state. Everything
 * else is a front over it:
 *  - LockAnalysisBuilder turns whole chunks into a LockAnalysis that
 *    readers may use while it grows;
 *  - LockFeedSource builds one from the chunks its reader fetches, so
 *    an SLE/TM run reads its stream once (Runner::run,
 *    MultiCoreRunner); a sweep's ChunkFanout feeds a builder with the
 *    chunks it makes for a trace group;
 *  - LockDetector::analyze is the builder over a whole source;
 *  - WcRewriteSource keeps the records beside the core and expands
 *    each one once its role is final.
 */

#ifndef STOREMLP_TRACE_LOCK_DETECTOR_HH
#define STOREMLP_TRACE_LOCK_DETECTOR_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/trace.hh"
#include "trace/trace_source.hh"

namespace storemlp
{

/** Default lock-detector window: longest critical section, in records. */
inline constexpr uint64_t kLockWindow = 512;

/** One detected critical section. */
struct LockPair
{
    uint64_t acquireIdx = 0; ///< trace index of the casa
    uint64_t releaseIdx = 0; ///< trace index of the release store
    uint64_t lockAddr = 0;
};

/** Per-instruction lock role, indexable by trace position. */
enum class LockRole : uint8_t
{
    None = 0,
    Acquire,    ///< casa (PC) or lwarx (WC): the acquiring access
    AcquireAux, ///< stwcx / isync completing a WC acquire sequence
    Release,    ///< the releasing store
    ReleaseAux, ///< lwsync fencing a WC release
};

/** Result of a detector run. */
struct LockAnalysis
{
    std::vector<LockPair> pairs;
    std::vector<LockRole> roles; ///< one per trace record
    /**
     * False while a LockAnalysisBuilder is still reading the stream:
     * `roles` then holds the final roles of a prefix, and `pairs`
     * every pair found so far, some of whose roles may not be final.
     */
    bool complete = true;
    /** Window of the detector that builds it (see covers()). */
    uint64_t window = kLockWindow;

    bool
    isAcquire(uint64_t idx) const
    {
        return idx < roles.size() && roles[idx] == LockRole::Acquire;
    }
    bool
    isRelease(uint64_t idx) const
    {
        return idx < roles.size() && roles[idx] == LockRole::Release;
    }

    /**
     * Whether a reader of the records below `end` sees exactly the
     * whole-stream analysis. Roles are final up to end + window + 2,
     * so every pair touching a record below `end` is final too: its
     * release lies at most `window` records past its acquire, and it
     * reads roles up to acquire + 2.
     */
    bool
    covers(uint64_t end) const
    {
        return complete || roles.size() >= end + window + 3;
    }

    /** Throws std::logic_error unless covers(idx + 1). */
    void
    requireCovered(uint64_t idx) const
    {
        if (!covers(idx + 1))
            throwUncovered(idx);
    }

  private:
    [[noreturn]] void throwUncovered(uint64_t idx) const;
};

/**
 * Scans a trace for lock idioms. PC (TSO) form: a `casa` to address A
 * acquires; the first subsequent plain store to A within `window`
 * instructions releases. WC (PowerPC) form: `lwarx A; stwcx A; isync`
 * acquires and `lwsync; store A` releases. Unmatched atomics (e.g.
 * lock-free CAS loops) are left unpaired and keep their serializing
 * semantics.
 */
class LockDetector
{
  public:
    explicit LockDetector(uint64_t window = kLockWindow)
        : _window(window)
    {
    }

    /**
     * The analysis of a whole source: a LockAnalysisBuilder fed every
     * chunk, with O(window + chunk) resident trace data; the returned
     * roles vector is still one byte per record. For tests and
     * `storemlp_traceinfo`; runs build theirs from the chunks they
     * read (LockFeedSource).
     */
    LockAnalysis analyze(TraceSource &src) const;

    uint64_t window() const { return _window; }

  private:
    uint64_t _window;
};

/**
 * The detector core: push each record's class and address in trace
 * order, pop roles back out, oldest first, once they can no longer
 * change. It keeps a ring of the last O(window) records' class,
 * address and role, and the open acquires of the last `window`
 * records; nothing grows with the trace but the pairs found, which
 * the consumer takes.
 *
 * The lag rules:
 *  - record j is processed only once record j+1 has been pushed (the
 *    lwarx idiom looks one record ahead), or at finish();
 *  - after processing j, roles at indices <= j - window are final — a
 *    later release store i > j can only annotate indices >= i - window.
 */
class StreamingLockDetector
{
  public:
    explicit StreamingLockDetector(uint64_t window = kLockWindow);

    /**
     * Append the next `n` records of the stream, given as class and
     * address lanes (TraceChunk::LaneRefs).
     */
    void push(const uint8_t *cls, const uint64_t *addr, uint64_t n);

    /** Append the next record of the stream. */
    void
    push(InstClass cls, uint64_t addr)
    {
        uint8_t c = static_cast<uint8_t>(cls);
        push(&c, &addr, 1);
    }

    /** Declare end of input: every buffered record becomes final. */
    void finish();

    /** Leading records whose roles are final and ready to pop. */
    uint64_t
    finalizedCount() const
    {
        uint64_t final_upto = _finished ? _next
            : _next >= _window + 1 ? _next - _window - 1 : 0;
        return final_upto > _base ? final_upto - _base : 0;
    }

    /** Pop the oldest finalized record's role. */
    LockRole pop() { return _ring[_base++ & _mask].role; }

    /** Pop every finalized role onto `out`, oldest first. */
    void
    popFinal(std::vector<LockRole> &out)
    {
        uint64_t n = finalizedCount();
        size_t at = out.size();
        out.resize(at + n);
        for (uint64_t k = 0; k < n; ++k)
            out[at + k] = _ring[(_base + k) & _mask].role;
        _base += n;
    }

    /** Pairs matched and not yet taken (the consumer moves them out
     *  and clears this), in release order. */
    std::vector<LockPair> &pairs() { return _pairs; }

  private:
    struct Slot
    {
        uint64_t addr;
        InstClass cls;
        LockRole role;
    };

    /** Only atomics, and stores while an acquire is open, change roles. */
    bool
    mayChangeRoles(InstClass cls) const
    {
        return cls == InstClass::AtomicCas ||
            cls == InstClass::LoadLocked ||
            (cls == InstClass::Store && !_open.empty());
    }
    /** Process record j (< _next) of a class mayChangeRoles() admits. */
    void processLockClass(uint64_t j);
    void grow();
    Slot &slot(uint64_t idx) { return _ring[idx & _mask]; }

    uint64_t _window;
    std::vector<Slot> _ring; ///< indices [_base, _next), by idx & _mask
    uint64_t _mask = 0;
    uint64_t _base = 0; ///< oldest record not popped
    uint64_t _next = 0; ///< one past the last pushed index
    bool _finished = false;
    /** addr -> acquire index, for acquires of the last `window` records. */
    std::unordered_map<uint64_t, uint64_t> _open;
    /** (acquire, addr) of every open, oldest first, for expiry. */
    std::deque<std::pair<uint64_t, uint64_t>> _opened;
    std::vector<LockPair> _pairs;
};

/**
 * A LockAnalysis built while its stream is read, so readers can run
 * alongside it instead of after a pass of its own. Push chunks in
 * trace order, then finish(). Readers hold `&analysis()`; a reader of
 * the records below index `end` sees exactly the whole-stream
 * analysis once analysis().covers(end) holds.
 */
class LockAnalysisBuilder
{
  public:
    /** `records`, when known, reserves the roles vector up front. */
    explicit LockAnalysisBuilder(uint64_t window = kLockWindow,
                                 uint64_t records = 0);

    /** The next chunk of the stream (read through its lanes). */
    void push(const TraceChunk &chunk);
    /** End of the stream: every role and pair becomes final. */
    void finish();

    const LockAnalysis &analysis() const { return _out; }
    LockAnalysis take() { return std::move(_out); }

  private:
    StreamingLockDetector _det;
    LockAnalysis _out;
};

/**
 * Pass-through source for one reader that builds the stream's lock
 * analysis from the chunks it fetches, so a run reads its stream
 * once. Chunks come from `inner` in order, each exactly once; a chunk
 * pulled for the analysis before its reader asks for it is held until
 * then.
 *
 * The reader simulates only records whose lock reads the analysis
 * covers: with `lead` the furthest past a record the reader reads
 * roles (MlpSimulator::lockReadLead), coveredStop() says how far it
 * may go and pulls the next chunk only once the reader has got there.
 * Pulling late keeps a ReadAheadSource below it one chunk ahead of the
 * engine, with no extra chunk resident.
 */
class LockFeedSource : public TraceSource
{
  public:
    LockFeedSource(TraceSource &inner, uint64_t lead,
                   uint64_t window = kLockWindow);

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override
    {
        return _inner.knownSize();
    }
    std::string fingerprint() const override
    {
        return _inner.fingerprint();
    }
    const TraceSource *inner() const override { return &_inner; }

    const LockAnalysis &analysis() const { return _locks.analysis(); }

    /**
     * Where a reader at record `pos` may stop on its way to `end`:
     * min(end, e) for the largest e whose lock reads are covered,
     * pulling chunks until e > pos (or the stream ends).
     */
    uint64_t coveredStop(uint64_t pos, uint64_t end);

  private:
    /** Pull the next chunk into the analysis; false at the end. */
    bool pull();

    TraceSource &_inner;
    uint64_t _lead;
    LockAnalysisBuilder _locks;
    uint64_t _pulled = 0; ///< chunks pulled from `inner`
    bool _ended = false;
    /** Pulled chunks the reader has not fetched, from _heldBase. */
    std::deque<std::shared_ptr<const TraceChunk>> _held;
    uint64_t _heldBase = 0;
};

} // namespace storemlp

#endif // STOREMLP_TRACE_LOCK_DETECTOR_HH
