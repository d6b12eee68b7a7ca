/**
 * @file
 * Lock detector implementation: a streaming core and its whole-source
 * front.
 */

#include "trace/lock_detector.hh"

#include "trace/trace_source.hh"

namespace storemlp
{

void
StreamingLockDetector::push(const TraceRecord &r)
{
    _recs.push_back(r);
    _roles.push_back(LockRole::None);
    ++_next;
    // Keep a one-record lag: record j is processed only once j+1 is
    // buffered, because the lwarx idiom inspects the following stwcx.
    while (_processed + 1 < _next)
        processAt(_processed++);
}

void
StreamingLockDetector::finish()
{
    _finished = true;
    while (_processed < _next)
        processAt(_processed++);
}

uint64_t
StreamingLockDetector::finalizedCount() const
{
    if (_finished)
        return _next - _base;
    if (_processed == 0)
        return 0;
    // Last processed index is _processed - 1; a future release store
    // i > j can annotate indices >= i - window >= _processed - window,
    // so everything strictly below that is final.
    uint64_t j = _processed - 1;
    uint64_t final_upto = j >= _window ? j - _window + 1 : 0;
    return final_upto > _base ? final_upto - _base : 0;
}

std::pair<TraceRecord, LockRole>
StreamingLockDetector::pop()
{
    std::pair<TraceRecord, LockRole> out{_recs.front(), _roles.front()};
    _recs.pop_front();
    _roles.pop_front();
    ++_base;
    return out;
}

void
StreamingLockDetector::processAt(uint64_t j)
{
    const TraceRecord &r = recAt(j);

    if (r.cls == InstClass::AtomicCas) {
        // PC idiom. A new casa to the same address supersedes a
        // stale unmatched one.
        _open[r.addr] = j;
        return;
    }

    if (r.cls == InstClass::LoadLocked) {
        // WC idiom: lwarx must be completed by stwcx to the same
        // address; a trailing isync is part of the acquire.
        if (j + 1 < _next && recAt(j + 1).cls == InstClass::StoreCond &&
            recAt(j + 1).addr == r.addr) {
            _open[r.addr] = j;
        }
        return;
    }

    if (r.cls == InstClass::Store) {
        auto it = _open.find(r.addr);
        if (it == _open.end())
            return;
        uint64_t acq = it->second;
        if (j - acq > _window) {
            // Critical section implausibly long: treat the atomic
            // as a bare CAS, not a lock acquire.
            _open.erase(it);
            return;
        }
        _pairs.push_back({acq, j, r.addr});
        roleAt(acq) = LockRole::Acquire;
        roleAt(j) = LockRole::Release;

        // Annotate the auxiliary instructions of WC sequences. For a
        // LoadLocked acquire, acq+1 is the stwcx and the release store
        // sits at j >= acq+2, so both aux slots are always buffered.
        if (recAt(acq).cls == InstClass::LoadLocked) {
            roleAt(acq + 1) = LockRole::AcquireAux; // stwcx
            if (recAt(acq + 2).cls == InstClass::Isync)
                roleAt(acq + 2) = LockRole::AcquireAux;
        }
        if (j > 0 && recAt(j - 1).cls == InstClass::Lwsync)
            roleAt(j - 1) = LockRole::ReleaseAux;

        _open.erase(it);
    }
}

LockAnalysisBuilder::LockAnalysisBuilder(uint64_t window, uint64_t records)
    : _det(window), _window(window)
{
    _out.roles.reserve(records);
    _out.complete = false;
}

void
LockAnalysisBuilder::push(const TraceRecord &r)
{
    _det.push(r);
    drain();
}

void
LockAnalysisBuilder::finish()
{
    _det.finish();
    drain();
    _out.complete = true;
}

void
LockAnalysisBuilder::drain()
{
    while (_det.finalizedCount())
        _out.roles.push_back(_det.pop().second);
    const std::vector<LockPair> &found = _det.pairs();
    if (found.size() != _out.pairs.size()) {
        _out.pairs.insert(_out.pairs.end(),
                          found.begin() +
                              static_cast<ptrdiff_t>(_out.pairs.size()),
                          found.end());
    }
}

LockAnalysis
LockDetector::analyze(TraceSource &src) const
{
    LockAnalysisBuilder builder(_window, src.knownSize().value_or(0));
    forEachRecord(src, 0, ~uint64_t{0},
                  [&](const TraceRecord &r) { builder.push(r); });
    builder.finish();
    return builder.take();
}

} // namespace storemlp
