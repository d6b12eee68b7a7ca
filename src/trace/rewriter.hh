/**
 * @file
 * PC -> WC trace rewriter. Implements the paper's methodology: "These
 * instruction sequences [lock acquire/release] were then replaced with
 * the appropriate instruction sequences and barriers" (Section 4.2).
 *
 * Rewrites, per Example 6 of the paper:
 *   casa (acquire)   ->  lwarx ; stwcx ; isync
 *   store (release)  ->  lwsync ; store
 * Everything else is copied through unchanged (standalone membars keep
 * full-fence semantics under both models).
 */

#ifndef STOREMLP_TRACE_REWRITER_HH
#define STOREMLP_TRACE_REWRITER_HH

#include <memory>

#include "trace/lock_detector.hh"
#include "trace/trace.hh"
#include "trace/trace_source.hh"

namespace storemlp
{

/**
 * Append the WC rendition of one record given its lock role: Acquire
 * expands to lwarx;stwcx;isync, Release to lwsync;store, everything
 * else copies through. Returns the number of records appended. Both
 * the batch rewriter and the streaming WcRewriteSource funnel every
 * record through this helper, so their outputs are identical by
 * construction.
 */
uint64_t appendWcExpansion(const TraceRecord &r, LockRole role,
                           std::vector<TraceRecord> &out);

/**
 * Produces the weak-consistency rendition of a processor-consistency
 * trace given a lock analysis.
 */
class TraceRewriter
{
  public:
    /** Rewrite using a precomputed analysis. */
    Trace toWeakConsistency(const Trace &trace,
                            const LockAnalysis &locks) const;

    /** Convenience: detect locks, then rewrite. */
    Trace toWeakConsistency(const Trace &trace) const;
};

/**
 * Streaming PC -> WC rewrite of an inner source: pulls input records
 * through a StreamingLockDetector and expands each finalized
 * (record, role) with appendWcExpansion, carrying only the detector
 * window plus one output chunk across chunk boundaries. Emits exactly
 * the record stream of `TraceRewriter::toWeakConsistency(materialize
 * (inner))`. Sequential; backward fetches restart both the detector
 * and the inner source.
 */
class WcRewriteSource : public TraceSource
{
  public:
    explicit WcRewriteSource(std::unique_ptr<TraceSource> inner,
                             uint64_t window = 512);

    std::shared_ptr<const TraceChunk> fetch(uint64_t chunk_idx) override;
    std::optional<uint64_t> knownSize() const override;
    std::string fingerprint() const override;
    const TraceSource *inner() const override { return _inner.get(); }

  private:
    void restart();
    std::shared_ptr<const TraceChunk> produceNext();

    std::unique_ptr<TraceSource> _inner;
    uint64_t _window;

    std::optional<TraceCursor> _cur;
    uint64_t _inPos = 0;  ///< next input record to push
    StreamingLockDetector _det;
    std::vector<TraceRecord> _outCarry; ///< rewritten, not yet chunked
    uint64_t _emitted = 0;              ///< records handed out in chunks
    uint64_t _nextChunk = 0;
    bool _drained = false; ///< input exhausted and detector flushed
};

} // namespace storemlp

#endif // STOREMLP_TRACE_REWRITER_HH
