/**
 * @file
 * On-chip CPI model implementation.
 */

#include "core/cpi_model.hh"

namespace storemlp
{

CpiModel::CpiModel(const CpiModelParams &params) : _params(params)
{
}

CpiModel::Breakdown
CpiModel::evaluate(TraceSource &src, uint64_t warmup) const
{
    // Private L1s in front of a perfect L2: every L1 miss is an L2 hit
    // by construction of the metric.
    CacheHierarchy hier;
    BranchPredictor bp;

    uint64_t insts = 0;
    uint64_t loads = 0;
    uint64_t l1d_misses = 0;
    uint64_t l1i_misses = 0;
    uint64_t mispredicts = 0;

    uint64_t i = 0;
    forEachRecord(src, 0, ~uint64_t{0}, [&](const TraceRecord &r) {
        bool measured = i++ >= warmup;
        if (measured)
            ++insts;

        // Instruction side.
        uint64_t line = hier.lineAddr(r.pc);
        if (!hier.l1i().access(line, false, true).hit) {
            if (measured)
                ++l1i_misses;
        }

        if (isLoadClass(r.cls)) {
            if (measured)
                ++loads;
            if (!hier.l1d().access(r.addr, false, true).hit) {
                if (measured)
                    ++l1d_misses;
            }
        }
        if (isStoreClass(r.cls)) {
            // Write-through no-write-allocate L1D: stores do not stall
            // the pipeline on-chip (they drain through the queue).
            hier.l1d().access(r.addr, true, false);
        }
        if (r.cls == InstClass::Branch) {
            if (!bp.predictAndUpdate(r.pc, r.taken())) {
                if (measured)
                    ++mispredicts;
            }
        }
    });

    Breakdown b;
    if (insts == 0)
        return b;
    double n = static_cast<double>(insts);
    b.base = _params.baseCpi;
    b.loadUse = _params.loadUseExposure * (_params.l1Latency - 1.0) *
        static_cast<double>(loads) / n;
    b.l1dMiss = _params.l1dMissExposure * _params.l2HitLatency *
        static_cast<double>(l1d_misses) / n;
    b.l1iMiss = _params.l1iMissExposure * _params.l2HitLatency *
        static_cast<double>(l1i_misses) / n;
    b.branch = _params.mispredictPenalty *
        static_cast<double>(mispredicts) / n;
    return b;
}

} // namespace storemlp
