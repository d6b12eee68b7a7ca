/**
 * @file
 * Transactional-memory execution of critical sections. The paper
 * (Section 3.3.4) notes that "a related technique, transactional
 * memory [14], achieves similar benefits as SLE but requires software
 * as well as hardware support". Where the paper's SLE evaluation
 * assumes every elision succeeds, this model adds the part SLE
 * glosses over: data conflicts abort the transaction and the critical
 * section re-executes with the lock held (serializing, as in the
 * original code), paying a rollback penalty.
 *
 * Conflicts are modeled statistically: each detected critical section
 * aborts with a configurable probability, decided by a deterministic
 * hash of (acquire index, seed) so runs remain reproducible.
 */

#ifndef STOREMLP_CONSISTENCY_TRANSACTIONAL_HH
#define STOREMLP_CONSISTENCY_TRANSACTIONAL_HH

#include <cstdint>
#include <unordered_map>

#include "trace/lock_detector.hh"

namespace storemlp
{

/** Transactional-memory configuration. */
struct TmConfig
{
    bool enabled = false;
    /** Probability a critical section conflicts and aborts. */
    double abortProb = 0.02;
    /** Extra on-chip cycles charged per abort (rollback + retry). */
    double abortPenaltyCycles = 50.0;
    /** Determinism seed for abort decisions. */
    uint64_t seed = 0x5eedULL;

    bool operator==(const TmConfig &) const = default;
};

/**
 * Per-critical-section transactional decisions derived from the lock
 * analysis. Committing sections behave exactly like SLE (acquire
 * becomes a plain load, release and fences become NOPs); aborting
 * sections fall back to the locked path.
 */
class TransactionalMemory
{
  public:
    /** Elision action for an instruction (mirrors Sle::Action). */
    enum class Action : uint8_t
    {
        Normal,        ///< execute as-is (outside CS, or aborted CS)
        AcquireAsLoad, ///< transactional acquire: plain load
        Nop,           ///< elided release / auxiliary instruction
    };

    /**
     * `analysis` may still be growing (LockAnalysisBuilder): pairs are
     * indexed once their roles are final, and a query at `idx` is
     * exact once it covers idx + 1. A query it does not cover yet
     * throws std::logic_error.
     */
    TransactionalMemory(const LockAnalysis *analysis,
                        const TmConfig &config);

    /** Classify the instruction at trace index `idx`. */
    Action classify(uint64_t idx) const;

    /** True if `idx` belongs to a lock idiom elided by a committing
     *  transaction (no stats side effects). */
    bool peekElided(uint64_t idx) const;

    /** True if `idx` is the acquire of an ABORTED section (the
     *  engine charges the rollback penalty there). */
    bool abortsAt(uint64_t idx) const;

    /** Rollback penalty in on-chip cycles for an aborted section. */
    double abortPenalty() const { return _config.abortPenaltyCycles; }

    bool enabled() const { return _enabled; }
    /** Sections (and aborted ones) among the pairs indexed so far. */
    uint64_t
    sections() const
    {
        indexFinalPairs();
        return _sections;
    }
    uint64_t
    abortedSections() const
    {
        indexFinalPairs();
        return _abortedSections;
    }

  private:
    bool sectionCommits(uint64_t acquire_idx) const;
    /** Index the analysis's pairs whose roles are final, in order. */
    void indexFinalPairs() const;

    TmConfig _config;
    bool _enabled;
    const LockAnalysis *_analysis;
    /** idx of any lock-idiom instruction -> acquire idx + role. */
    struct Entry
    {
        uint64_t acquireIdx;
        LockRole role;
    };
    // Built lazily, as the analysis's pairs become final.
    mutable std::unordered_map<uint64_t, Entry> _byIdx;
    mutable size_t _indexed = 0; ///< analysis pairs indexed
    mutable uint64_t _sections = 0;
    mutable uint64_t _abortedSections = 0;
};

} // namespace storemlp

#endif // STOREMLP_CONSISTENCY_TRANSACTIONAL_HH
