/**
 * @file
 * Transactional memory implementation.
 */

#include "consistency/transactional.hh"

#include <algorithm>

namespace storemlp
{

namespace
{

/** splitmix64: cheap deterministic hash for abort decisions. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

TransactionalMemory::TransactionalMemory(const LockAnalysis *analysis,
                                         const TmConfig &config)
    : _config(config), _enabled(config.enabled && analysis),
      _analysis(analysis)
{
    indexFinalPairs();
}

void
TransactionalMemory::indexFinalPairs() const
{
    if (!_enabled)
        return;
    const LockAnalysis &a = *_analysis;
    for (; _indexed < a.pairs.size(); ++_indexed) {
        const LockPair &p = a.pairs[_indexed];
        // A pair reads roles up to its release and acquire + 2; wait
        // (and keep pair order) until those are final.
        if (!a.complete &&
            std::max(p.acquireIdx + 2, p.releaseIdx) >= a.roles.size())
            return;

        ++_sections;
        if (!sectionCommits(p.acquireIdx))
            ++_abortedSections;

        // Index every instruction of the idiom by its acquire. The
        // roles vector covers auxiliary records (stwcx/isync/lwsync).
        _byIdx[p.acquireIdx] = {p.acquireIdx, LockRole::Acquire};
        _byIdx[p.releaseIdx] = {p.acquireIdx, LockRole::Release};
        for (uint64_t i = p.acquireIdx + 1;
             i < a.roles.size() && i <= p.acquireIdx + 2; ++i) {
            if (a.roles[i] == LockRole::AcquireAux)
                _byIdx[i] = {p.acquireIdx, LockRole::AcquireAux};
        }
        if (p.releaseIdx > 0 &&
            a.roles[p.releaseIdx - 1] == LockRole::ReleaseAux) {
            _byIdx[p.releaseIdx - 1] = {p.acquireIdx,
                                        LockRole::ReleaseAux};
        }
    }
}

bool
TransactionalMemory::sectionCommits(uint64_t acquire_idx) const
{
    uint64_t h = mix(acquire_idx ^ _config.seed);
    double u = static_cast<double>(h >> 11) *
        (1.0 / 9007199254740992.0); // uniform in [0,1)
    return u >= _config.abortProb;
}

TransactionalMemory::Action
TransactionalMemory::classify(uint64_t idx) const
{
    if (!_enabled)
        return Action::Normal;
    indexFinalPairs();
    auto it = _byIdx.find(idx);
    if (it == _byIdx.end())
        return Action::Normal;
    if (!sectionCommits(it->second.acquireIdx))
        return Action::Normal; // aborted: locked path
    switch (it->second.role) {
      case LockRole::Acquire:
        return Action::AcquireAsLoad;
      default:
        return Action::Nop;
    }
}

bool
TransactionalMemory::peekElided(uint64_t idx) const
{
    return classify(idx) != Action::Normal;
}

bool
TransactionalMemory::abortsAt(uint64_t idx) const
{
    if (!_enabled)
        return false;
    indexFinalPairs();
    auto it = _byIdx.find(idx);
    if (it == _byIdx.end() || it->second.role != LockRole::Acquire)
        return false;
    return !sectionCommits(it->second.acquireIdx);
}

} // namespace storemlp
