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
 */

#ifndef STOREMLP_TRACE_LOCK_DETECTOR_HH
#define STOREMLP_TRACE_LOCK_DETECTOR_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/trace.hh"

namespace storemlp
{

class TraceSource;

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
    explicit LockDetector(uint64_t window = 512) : _window(window) {}

    /**
     * Detect over a whole source in one pass, with O(window + chunk)
     * resident trace data; the returned roles vector is still one
     * byte per record.
     */
    LockAnalysis analyze(TraceSource &src) const;

    uint64_t window() const { return _window; }

  private:
    uint64_t _window;
};

/**
 * Incremental lock detection over a record stream. This is the carry
 * state that lets the detector run as a streaming per-chunk transform:
 * push records in trace order, pop (record, role) pairs back out once
 * their role can no longer change. Resident state is O(window), not
 * O(trace).
 *
 * The lag rules mirror exactly what the batch pass reads:
 *  - record j is processed only once record j+1 has been pushed (the
 *    lwarx idiom looks one record ahead), or at finish();
 *  - after processing j, roles at indices <= j - window are final — a
 *    later release store i > j can only annotate indices >= i - window.
 *
 * `LockDetector::analyze` is a thin loop over this class; the WC
 * rewrite (WcRewriteSource) drives it chunk by chunk.
 */
class StreamingLockDetector
{
  public:
    explicit StreamingLockDetector(uint64_t window = 512)
        : _window(window)
    {
    }

    /** Append the next record of the stream. */
    void push(const TraceRecord &r);

    /** Declare end of input: every buffered record becomes final. */
    void finish();

    /** Leading records whose roles are final and ready to pop. */
    uint64_t finalizedCount() const;

    /** Pop the oldest finalized record together with its role. */
    std::pair<TraceRecord, LockRole> pop();

    /** Trace index of the next record pop() will return. */
    uint64_t baseIdx() const { return _base; }

    /** All pairs matched so far, in release order. */
    const std::vector<LockPair> &pairs() const { return _pairs; }
    std::vector<LockPair> takePairs() { return std::move(_pairs); }

  private:
    void processAt(uint64_t j);
    const TraceRecord &recAt(uint64_t idx) const
    {
        return _recs[idx - _base];
    }
    LockRole &roleAt(uint64_t idx) { return _roles[idx - _base]; }

    uint64_t _window;
    std::deque<TraceRecord> _recs; ///< indices [_base, _next)
    std::deque<LockRole> _roles;   ///< parallel to _recs
    uint64_t _base = 0;            ///< trace index of _recs.front()
    uint64_t _next = 0;            ///< one past the last pushed index
    uint64_t _processed = 0;       ///< next index to process
    bool _finished = false;
    std::unordered_map<uint64_t, uint64_t> _open; ///< addr -> acquire
    std::vector<LockPair> _pairs;
};

} // namespace storemlp

#endif // STOREMLP_TRACE_LOCK_DETECTOR_HH
