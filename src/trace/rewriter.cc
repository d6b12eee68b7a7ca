/**
 * @file
 * Trace rewriter implementation: shared per-record expansion, the
 * batch pass, and the streaming source.
 */

#include "trace/rewriter.hh"

namespace storemlp
{

uint64_t
appendWcExpansion(const TraceRecord &r, LockRole role,
                  std::vector<TraceRecord> &out)
{
    if (role == LockRole::Acquire) {
        // casa -> lwarx ; stwcx ; isync. The inserted records share
        // the casa's pc (same fetch line, no I-cache perturbation).
        TraceRecord ll = r;
        ll.cls = InstClass::LoadLocked;
        out.push_back(ll);

        TraceRecord sc = r;
        sc.cls = InstClass::StoreCond;
        sc.dst = 0;
        sc.src2 = r.src1;
        out.push_back(sc);

        TraceRecord is;
        is.pc = r.pc;
        is.cls = InstClass::Isync;
        is.flags = r.flags; // keeps the acquire ground-truth flag
        out.push_back(is);
        return 3;
    }
    if (role == LockRole::Release) {
        // store -> lwsync ; store.
        TraceRecord lw;
        lw.pc = r.pc;
        lw.cls = InstClass::Lwsync;
        out.push_back(lw);
        out.push_back(r);
        return 2;
    }
    out.push_back(r);
    return 1;
}

Trace
TraceRewriter::toWeakConsistency(const Trace &trace,
                                 const LockAnalysis &locks) const
{
    std::vector<TraceRecord> out;
    out.reserve(trace.size() + 2 * locks.pairs.size());

    for (uint64_t i = 0; i < trace.size(); ++i) {
        LockRole role = i < locks.roles.size() ? locks.roles[i]
                                               : LockRole::None;
        appendWcExpansion(trace[i], role, out);
    }
    return Trace(std::move(out));
}

Trace
TraceRewriter::toWeakConsistency(const Trace &trace) const
{
    LockDetector detector;
    return toWeakConsistency(trace, detector.analyze(trace));
}

// ---------------------------------------------------------------------
// WcRewriteSource
// ---------------------------------------------------------------------

WcRewriteSource::WcRewriteSource(std::unique_ptr<TraceSource> inner,
                                 uint64_t window)
    : TraceSource(inner->chunkInsts()), _inner(std::move(inner)),
      _window(window)
{
    restart();
}

void
WcRewriteSource::restart()
{
    _cur.emplace(*_inner);
    _inPos = 0;
    _det = StreamingLockDetector(_window);
    _outCarry.clear();
    _emitted = 0;
    _nextChunk = 0;
    _drained = false;
}

std::shared_ptr<const TraceChunk>
WcRewriteSource::produceNext()
{
    // Room for the chunk plus the expansion that overshoots it.
    if (!_drained)
        _outCarry.reserve(_chunkInsts + 64);
    while (!_drained && _outCarry.size() < _chunkInsts) {
        const TraceRecord *r = _cur->tryAt(_inPos);
        if (r) {
            // The detector copies records into its window, so the
            // cursor only ever needs the chunk under _inPos.
            _det.push(*r);
            ++_inPos;
            _cur->trim(_inPos);
        } else {
            _det.finish();
            _drained = true;
        }
        while (_det.finalizedCount()) {
            auto [rec, role] = _det.pop();
            appendWcExpansion(rec, role, _outCarry);
        }
    }

    if (_outCarry.empty())
        return nullptr;
    std::shared_ptr<const TraceChunk> chunk =
        takeChunk(_outCarry, _emitted, _chunkInsts);
    _emitted += chunk->count;
    ++_nextChunk;
    return chunk;
}

std::shared_ptr<const TraceChunk>
WcRewriteSource::fetch(uint64_t chunk_idx)
{
    if (chunk_idx < _nextChunk)
        restart(); // backward fetch: deterministic replay
    std::shared_ptr<const TraceChunk> c;
    while (_nextChunk <= chunk_idx) {
        c = produceNext();
        if (!c)
            return nullptr;
    }
    return c;
}

std::optional<uint64_t>
WcRewriteSource::knownSize() const
{
    // The rewrite inserts records, so the output length is only known
    // once the whole input has been pushed through the detector.
    if (_drained)
        return _emitted + _outCarry.size();
    return std::nullopt;
}

std::string
WcRewriteSource::fingerprint() const
{
    std::string fp = _inner->fingerprint();
    if (fp.empty())
        return {};
    // Flip the inner stream's wc marker (GeneratorSource emits
    // "|wc=0"); append one if the inner key has none.
    size_t pos = fp.find("|wc=0");
    if (pos != std::string::npos)
        fp.replace(pos, 5, "|wc=1");
    else
        fp += "|wc=1";
    return fp;
}

} // namespace storemlp
