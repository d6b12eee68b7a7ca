/**
 * @file
 * Speculative Lock Elision (Rajwar & Goodman, MICRO'01) applied to
 * store performance, as proposed in Section 3.3.4 of the paper: the
 * lock acquire is converted into a regular (non-serializing) load and
 * the lock release into a NOP. Following the paper's evaluation, all
 * elisions are assumed successful; the data-conflict abort path is
 * modeled only as statistics hooks.
 */

#ifndef STOREMLP_CONSISTENCY_SLE_HH
#define STOREMLP_CONSISTENCY_SLE_HH

#include <cstdint>

#include "trace/lock_detector.hh"

namespace storemlp
{

/**
 * Per-instruction elision decisions driven by a LockAnalysis of the
 * trace being simulated (PC or WC form).
 */
class Sle
{
  public:
    /** What the pipeline should do with an instruction under SLE. */
    enum class Action : uint8_t
    {
        Normal,        ///< execute as-is
        AcquireAsLoad, ///< serializing acquire becomes a plain load
        Nop,           ///< elided (release store, acquire aux, fences)
    };

    /**
     * @param analysis lock pairs of the trace; must outlive this
     * @param enabled  disabled SLE classifies everything Normal
     */
    Sle(const LockAnalysis *analysis, bool enabled)
        : _analysis(analysis), _enabled(enabled && analysis)
    {
    }

    /**
     * Classify the instruction at trace index `idx`. An analysis still
     * being built must cover `idx` (LockAnalysis::covers), or this
     * throws std::logic_error.
     */
    Action
    classify(uint64_t idx)
    {
        if (!_enabled)
            return Action::Normal;
        _analysis->requireCovered(idx);
        if (idx >= _analysis->roles.size())
            return Action::Normal;
        switch (_analysis->roles[idx]) {
          case LockRole::Acquire:
            ++_elidedAcquires;
            return Action::AcquireAsLoad;
          case LockRole::AcquireAux:
          case LockRole::ReleaseAux:
            return Action::Nop;
          case LockRole::Release:
            ++_elidedReleases;
            return Action::Nop;
          default:
            return Action::Normal;
        }
    }

    /**
     * Whether the instruction at `idx` is elided or transformed by
     * SLE (no stats side effects; usable for pre-dispatch checks).
     */
    bool
    peekElided(uint64_t idx) const
    {
        if (!_enabled)
            return false;
        _analysis->requireCovered(idx);
        if (idx >= _analysis->roles.size())
            return false;
        return _analysis->roles[idx] != LockRole::None;
    }

    bool enabled() const { return _enabled; }
    uint64_t elidedAcquires() const { return _elidedAcquires; }
    uint64_t elidedReleases() const { return _elidedReleases; }
    void resetStats() { _elidedAcquires = _elidedReleases = 0; }

  private:
    const LockAnalysis *_analysis;
    bool _enabled;
    uint64_t _elidedAcquires = 0;
    uint64_t _elidedReleases = 0;
};

} // namespace storemlp

#endif // STOREMLP_CONSISTENCY_SLE_HH
