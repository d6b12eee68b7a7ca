/**
 * @file
 * On-chip CPI model (paper Section 3.4, Table 3). CPIon-chip is what
 * a cycle simulator measures with a perfect furthest on-chip cache:
 * issue-limited base CPI plus exposed L1-miss/L2-hit latency plus
 * branch misprediction penalties. Overall CPI is then
 *   CPIoverall = CPIon-chip * (1 - Overlap) + EPI * MissPenalty.
 */

#ifndef STOREMLP_CORE_CPI_MODEL_HH
#define STOREMLP_CORE_CPI_MODEL_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "trace/trace_source.hh"
#include "uarch/branch_predictor.hh"

namespace storemlp
{

/** Coefficients of the on-chip CPI model. */
struct CpiModelParams
{
    /** Issue-limited CPI of the core on an all-hit stream. */
    double baseCpi = 0.70;
    /** L1 data cache hit latency in cycles (paper: 4). */
    double l1Latency = 4.0;
    /** L2 hit latency in cycles (paper: 15). */
    double l2HitLatency = 15.0;
    /**
     * Fraction of an L1-miss/L2-hit's latency exposed to the pipeline
     * (out-of-order execution hides the rest).
     */
    double l1dMissExposure = 0.40;
    /** Exposure for instruction-side L1 misses (frontend stalls). */
    double l1iMissExposure = 0.85;
    /** Pipeline refill cycles per branch misprediction. */
    double mispredictPenalty = 12.0;
    /** Exposed fraction of L1 load-hit latency (load-to-use). */
    double loadUseExposure = 0.10;
};

/**
 * Evaluates CPIon-chip for a trace by running it through a hierarchy
 * whose L2 never misses (perfect furthest on-chip cache).
 */
class CpiModel
{
  public:
    explicit CpiModel(const CpiModelParams &params = {});

    /** Additive breakdown of on-chip CPI. */
    struct Breakdown
    {
        double base = 0.0;
        double loadUse = 0.0;
        double l1dMiss = 0.0;
        double l1iMiss = 0.0;
        double branch = 0.0;

        double
        total() const
        {
            return base + loadUse + l1dMiss + l1iMiss + branch;
        }
    };

    /**
     * Measure over records [warmup, end) of `src` after warming the
     * L1s and predictor on [0, warmup). One pass, O(chunk) memory.
     */
    Breakdown evaluate(TraceSource &src, uint64_t warmup = 0) const;

    const CpiModelParams &params() const { return _params; }

  private:
    CpiModelParams _params;
};

} // namespace storemlp

#endif // STOREMLP_CORE_CPI_MODEL_HH
