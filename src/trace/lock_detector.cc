/**
 * @file
 * Lock detector implementation: the streaming core and its fronts.
 */

#include "trace/lock_detector.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace storemlp
{

void
LockAnalysis::throwUncovered(uint64_t idx) const
{
    throw std::logic_error(
        "lock analysis read at record " + std::to_string(idx) +
        " past its final roles (" + std::to_string(roles.size()) +
        " records, window " + std::to_string(window) + ")");
}

StreamingLockDetector::StreamingLockDetector(uint64_t window)
    : _window(window)
{
    // A consumer popping each role once final keeps about window + 2
    // records buffered; grow() covers one that pops later.
    uint64_t cap = 8;
    while (cap < window + 4)
        cap <<= 1;
    _ring.resize(cap);
    _mask = cap - 1;
}

void
StreamingLockDetector::grow()
{
    std::vector<Slot> ring(_ring.size() * 2);
    uint64_t mask = ring.size() - 1;
    for (uint64_t i = _base; i < _next; ++i)
        ring[i & mask] = _ring[i & _mask];
    _ring = std::move(ring);
    _mask = mask;
}

void
StreamingLockDetector::push(const uint8_t *cls, const uint64_t *addr,
                            uint64_t n)
{
    while (_next - _base + n > _mask + 1)
        grow();
    // Locals, so the slot stores need not reload the ring's geometry.
    Slot *ring = _ring.data();
    uint64_t mask = _mask;
    uint64_t next = _next;
    for (uint64_t k = 0; k < n; ++k) {
        ring[next & mask] = {addr[k], static_cast<InstClass>(cls[k]),
                             LockRole::None};
        ++next;
        // Keep a one-record lag: the lwarx idiom inspects the
        // following stwcx.
        if (next >= 2 && mayChangeRoles(ring[(next - 2) & mask].cls)) {
            _next = next;
            processLockClass(next - 2);
        }
    }
    _next = next;
}

void
StreamingLockDetector::finish()
{
    if (!_finished && _next >= 1 && mayChangeRoles(slot(_next - 1).cls))
        processLockClass(_next - 1);
    _finished = true;
}

void
StreamingLockDetector::processLockClass(uint64_t j)
{
    // An acquire more than `window` records back can no longer pair:
    // close it, unless a later acquire of its address replaced it.
    while (!_opened.empty() && j - _opened.front().first > _window) {
        auto it = _open.find(_opened.front().second);
        if (it != _open.end() && it->second == _opened.front().first)
            _open.erase(it);
        _opened.pop_front();
    }

    const Slot &r = slot(j);
    if (r.cls == InstClass::AtomicCas ||
        (r.cls == InstClass::LoadLocked && j + 1 < _next &&
         slot(j + 1).cls == InstClass::StoreCond &&
         slot(j + 1).addr == r.addr)) {
        // PC idiom: casa. WC idiom: lwarx completed by stwcx to the
        // same address (a trailing isync is part of the acquire). A
        // new acquire of the same address supersedes a stale one.
        _open[r.addr] = j;
        _opened.emplace_back(j, r.addr);
        return;
    }
    if (r.cls != InstClass::Store)
        return;

    auto it = _open.find(r.addr);
    if (it == _open.end())
        return;
    uint64_t acq = it->second;
    _open.erase(it);
    _pairs.push_back({acq, j, r.addr});
    slot(acq).role = LockRole::Acquire;
    slot(j).role = LockRole::Release;

    // Annotate the auxiliary instructions of WC sequences. For a
    // LoadLocked acquire, acq+1 is the stwcx and the release store
    // sits at j >= acq+2, so both aux slots are still buffered.
    if (slot(acq).cls == InstClass::LoadLocked) {
        slot(acq + 1).role = LockRole::AcquireAux; // stwcx
        if (slot(acq + 2).cls == InstClass::Isync)
            slot(acq + 2).role = LockRole::AcquireAux;
    }
    if (j > 0 && slot(j - 1).cls == InstClass::Lwsync)
        slot(j - 1).role = LockRole::ReleaseAux;
}

LockAnalysisBuilder::LockAnalysisBuilder(uint64_t window, uint64_t records)
    : _det(window)
{
    _out.roles.reserve(records);
    _out.complete = false;
    _out.window = window;
}

void
LockAnalysisBuilder::push(const TraceChunk &chunk)
{
    // A block at a time, so the detector's ring stays within about a
    // window plus a block while the roles leave it in bulk.
    constexpr uint64_t kBlock = 256;
    TraceChunk::LaneRefs lanes = chunk.lanes();
    for (uint64_t i = 0; i < chunk.count;) {
        uint64_t end = std::min(chunk.count, i + kBlock);
        _det.push(lanes.cls + i, lanes.addr + i, end - i);
        _det.popFinal(_out.roles);
        i = end;
    }
    std::vector<LockPair> &found = _det.pairs();
    _out.pairs.insert(_out.pairs.end(), found.begin(), found.end());
    found.clear();
}

void
LockAnalysisBuilder::finish()
{
    _det.finish();
    _det.popFinal(_out.roles);
    std::vector<LockPair> &found = _det.pairs();
    _out.pairs.insert(_out.pairs.end(), found.begin(), found.end());
    found.clear();
    _out.complete = true;
}

LockAnalysis
LockDetector::analyze(TraceSource &src) const
{
    LockAnalysisBuilder builder(_window, src.knownSize().value_or(0));
    for (uint64_t k = 0;; ++k) {
        std::shared_ptr<const TraceChunk> c = src.fetch(k);
        if (!c)
            break;
        builder.push(*c);
    }
    builder.finish();
    return builder.take();
}

// ---------------------------------------------------------------------
// LockFeedSource
// ---------------------------------------------------------------------

LockFeedSource::LockFeedSource(TraceSource &inner, uint64_t lead,
                               uint64_t window)
    : TraceSource(inner.chunkInsts()), _inner(inner), _lead(lead),
      _locks(window, inner.knownSize().value_or(0))
{
}

bool
LockFeedSource::pull()
{
    if (_ended)
        return false;
    std::shared_ptr<const TraceChunk> c = _inner.fetch(_pulled);
    if (!c) {
        _ended = true;
        _locks.finish();
        return false;
    }
    _locks.push(*c);
    if (_held.empty())
        _heldBase = _pulled;
    _held.push_back(std::move(c));
    ++_pulled;
    return true;
}

std::shared_ptr<const TraceChunk>
LockFeedSource::fetch(uint64_t chunk_idx)
{
    while (_pulled <= chunk_idx && pull()) {
    }
    if (chunk_idx < _heldBase || chunk_idx >= _heldBase + _held.size()) {
        // Past the end, or fetched before and given away: a backward
        // fetch goes to the inner source (which may restart).
        return chunk_idx < _pulled ? _inner.fetch(chunk_idx) : nullptr;
    }
    // The reader holds it from here, and reads forward: drop it and
    // any chunk below it.
    std::shared_ptr<const TraceChunk> c = _held[chunk_idx - _heldBase];
    while (_heldBase <= chunk_idx) {
        _held.pop_front();
        ++_heldBase;
    }
    return c;
}

uint64_t
LockFeedSource::coveredStop(uint64_t pos, uint64_t end)
{
    for (;;) {
        const LockAnalysis &a = _locks.analysis();
        // covers(e + lead) <=> roles >= e + lead + window + 3
        uint64_t need = _lead + a.window + 3;
        uint64_t ready = a.complete ? end
            : a.roles.size() > need ? a.roles.size() - need : 0;
        if (ready >= end || ready > pos)
            return std::min(ready, end);
        pull();
    }
}

} // namespace storemlp
