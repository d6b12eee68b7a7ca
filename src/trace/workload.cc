/**
 * @file
 * Calibrated workload profiles. The miss-rate knobs are derived
 * analytically from Table 1 of the paper:
 *   load miss/100  = 100 * loadFrac * loadColdProb
 *   store miss/100 = 100 * storeFrac * storeColdProb / coldStoresPerLine
 *   inst miss/100 ~= 100 * instColdProb * meanExcursionLines
 * and then empirically trimmed against the measured rates of the
 * generator run through the default 2MB L2 (see tests/test_calibration).
 */

#include "trace/workload.hh"

#include <iomanip>
#include <sstream>

namespace storemlp
{

namespace
{

using P = WorkloadProfile;
using B = FieldBound;

constexpr ProfileField kProfileFields[] = {
    {"name", &P::name},
    {"loadFrac", &P::loadFrac, B::Fraction},
    {"storeFrac", &P::storeFrac, B::Fraction},
    {"branchFrac", &P::branchFrac, B::Fraction},
    {"loadColdProb", &P::loadColdProb, B::Fraction},
    {"loadBurstCont", &P::loadBurstCont, B::Fraction},
    {"storeColdProb", &P::storeColdProb, B::Fraction},
    {"storeBurstCont", &P::storeBurstCont, B::Fraction},
    {"coldStoresPerLine", &P::coldStoresPerLine},
    {"storeSpatialRun", &P::storeSpatialRun},
    {"storeRevisitFrac", &P::storeRevisitFrac, B::Fraction},
    {"flushPhaseProb", &P::flushPhaseProb, B::Fraction},
    {"flushLenMean", &P::flushLenMean},
    {"flushStoreFrac", &P::flushStoreFrac, B::Fraction},
    {"flushColdProb", &P::flushColdProb, B::Fraction},
    {"burstPhaseProb", &P::burstPhaseProb, B::Fraction},
    {"burstLenMean", &P::burstLenMean},
    {"burstStoreFrac", &P::burstStoreFrac, B::Fraction},
    {"burstColdProb", &P::burstColdProb, B::Fraction},
    {"instColdProb", &P::instColdProb, B::Fraction},
    {"instBurstCont", &P::instBurstCont, B::Fraction},
    {"hotDataBytes", &P::hotDataBytes},
    {"hotL1Frac", &P::hotL1Frac, B::Fraction},
    {"hotL1Bytes", &P::hotL1Bytes},
    {"hotCodeBytes", &P::hotCodeBytes},
    {"hotCodeWindowBytes", &P::hotCodeWindowBytes},
    {"hotCodeJumpProb", &P::hotCodeJumpProb, B::Fraction},
    {"storeMissRegionBytes", &P::storeMissRegionBytes},
    {"sharedStoreFrac", &P::sharedStoreFrac, B::Fraction},
    {"sharedStoreRegionBytes", &P::sharedStoreRegionBytes},
    {"sharedHotFrac", &P::sharedHotFrac, B::Fraction},
    {"sharedHotBytes", &P::sharedHotBytes},
    {"sharedLoadFrac", &P::sharedLoadFrac, B::Fraction},
    {"lockProb", &P::lockProb, B::Fraction},
    {"lockCount", &P::lockCount, B::AtLeastOne},
    {"csBodyLen", &P::csBodyLen},
    {"membarProb", &P::membarProb, B::Fraction},
    {"easyBranchFrac", &P::easyBranchFrac, B::Fraction},
    {"branchBias", &P::branchBias},
    {"staticBranches", &P::staticBranches},
    {"branchDependsOnLoadProb", &P::branchDependsOnLoadProb, B::Fraction},
    {"depNearProb", &P::depNearProb, B::Fraction},
    // A timing input of the epoch engine: no trace byte depends on it.
    {.key = "cpiOnChip",
     .member = &P::cpiOnChip,
     .bound = B::Positive,
     .fingerprint = false},
};

} // namespace

std::span<const ProfileField>
workloadProfileFields()
{
    return kProfileFields;
}

std::string
WorkloadProfile::cacheKey() const
{
    // Hexfloat round-trips doubles exactly; integers print in decimal.
    std::ostringstream os;
    os << std::hexfloat;
    const char *sep = "";
    for (const ProfileField &f : kProfileFields) {
        if (!f.fingerprint)
            continue;
        os << sep;
        std::visit([&](auto m) { os << this->*m; }, f.member);
        sep = "|";
    }
    return os.str();
}

std::string
workloadNameList()
{
    std::string out;
    for (const NamedWorkload &w : kNamedWorkloads)
        out += (out.empty() ? "" : "|") + std::string(w.name);
    return out;
}

WorkloadProfile
workloadProfileForName(const std::string &name)
{
    for (const NamedWorkload &w : kNamedWorkloads) {
        if (name == w.name)
            return w.make();
    }
    throw ConfigError("unknown workload '" + name + "' (" +
                      workloadNameList() + ")");
}

WorkloadProfile
WorkloadProfile::database()
{
    WorkloadProfile p;
    p.name = "Database";
    p.loadFrac = 0.25;
    p.storeFrac = 0.0915; // flush/burst phases + critical sections add the rest
    p.branchFrac = 0.15;

    // Table 1: stores 10.09, store miss 0.36, load miss 0.57,
    // inst miss 0.09 per 100 instructions.
    p.storeColdProb = 0.094;    // background store misses (x2: revisits)
    p.burstPhaseProb = 0.000044;
    p.burstLenMean = 120;
    p.burstStoreFrac = 0.60;
    p.burstColdProb = 0.50;
    p.coldStoresPerLine = 2;
    p.storeBurstCont = 0.70;    // clustered store misses -> SQ pressure
    // Log/buffer flush phases carry ~60% of the store misses.
    p.flushPhaseProb = 0.000036;
    p.flushLenMean = 600;
    p.flushStoreFrac = 0.055;
    p.flushColdProb = 0.80;
    p.storeSpatialRun = 4;
    p.loadColdProb = 0.0228;
    p.loadBurstCont = 0.60;
    p.instColdProb = 0.00085;
    p.instBurstCont = 0.10;

    p.storeMissRegionBytes = 96ULL << 20;
    p.sharedStoreFrac = 0.10;

    p.lockProb = 0.0035;        // moderate lock density
    p.hotL1Frac = 0.88;
    p.hotCodeWindowBytes = 8 * 1024;
    p.hotCodeJumpProb = 0.00015;
    p.branchDependsOnLoadProb = 0.04;
    p.membarProb = 0.0005;
    p.csBodyLen = 14;

    p.targetStoresPer100 = 10.09;
    p.targetStoreMissPer100 = 0.36;
    p.targetLoadMissPer100 = 0.57;
    p.targetInstMissPer100 = 0.09;
    p.cpiOnChip = 1.11;
    return p;
}

WorkloadProfile
WorkloadProfile::tpcw()
{
    WorkloadProfile p;
    p.name = "TPC-W";
    p.loadFrac = 0.22;
    p.storeFrac = 0.063;
    p.branchFrac = 0.16;

    // Table 1: stores 7.28, store miss 0.12, load miss 0.06,
    // inst miss 0.06 per 100 instructions.
    p.storeColdProb = 0.060;
    p.burstPhaseProb = 0.000012;
    p.burstLenMean = 120;
    p.burstStoreFrac = 0.60;
    p.burstColdProb = 0.50;
    p.coldStoresPerLine = 2;
    p.storeBurstCont = 0.45;    // weakly clustered
    p.flushPhaseProb = 0.0000135;
    p.flushLenMean = 600;
    p.flushStoreFrac = 0.08;
    p.flushColdProb = 0.80;
    p.loadColdProb = 0.0027;
    p.loadBurstCont = 0.40;
    p.instColdProb = 0.00055;
    p.instBurstCont = 0.10;

    p.storeMissRegionBytes = 48ULL << 20;
    p.sharedStoreFrac = 0.12;

    p.lockProb = 0.0055;        // store serialize dominates (Fig 3)
    p.hotL1Frac = 0.88;
    p.hotCodeWindowBytes = 8 * 1024;
    p.hotCodeJumpProb = 0.00015;
    p.branchDependsOnLoadProb = 0.03;
    p.csBodyLen = 12;

    p.targetStoresPer100 = 7.28;
    p.targetStoreMissPer100 = 0.12;
    p.targetLoadMissPer100 = 0.06;
    p.targetInstMissPer100 = 0.06;
    p.cpiOnChip = 1.12;
    return p;
}

WorkloadProfile
WorkloadProfile::specjbb()
{
    WorkloadProfile p;
    p.name = "SPECjbb";
    p.loadFrac = 0.25;
    p.storeFrac = 0.064;
    p.branchFrac = 0.14;

    // Table 1: stores 7.52, store miss 0.07, load miss 0.25,
    // inst miss 0.00 per 100 instructions.
    p.storeColdProb = 0.015;
    p.coldStoresPerLine = 1;
    p.storeBurstCont = 0.30;    // isolated store misses
    p.flushPhaseProb = 0.000012;
    p.flushLenMean = 600;
    p.flushStoreFrac = 0.08;
    p.flushColdProb = 0.50;
    p.loadColdProb = 0.0100;
    p.loadBurstCont = 0.55;
    p.instColdProb = 0.0;
    p.instBurstCont = 0.0;

    p.storeMissRegionBytes = 40ULL << 20;
    p.sharedStoreFrac = 0.08;

    p.lockProb = 0.0050;        // heavy synchronization (Java locks)
    p.hotL1Frac = 0.95;
    p.hotL1Bytes = 24 * 1024;
    p.hotDataBytes = 128 * 1024; // smaller tier-2: warms quickly
    p.hotCodeWindowBytes = 8 * 1024;
    p.hotCodeJumpProb = 0.0001;
    p.branchDependsOnLoadProb = 0.03;
    p.csBodyLen = 10;

    p.targetStoresPer100 = 7.52;
    p.targetStoreMissPer100 = 0.07;
    p.targetLoadMissPer100 = 0.25;
    p.targetInstMissPer100 = 0.00;
    p.cpiOnChip = 0.95;
    return p;
}

WorkloadProfile
WorkloadProfile::specweb()
{
    WorkloadProfile p;
    p.name = "SPECweb";
    p.loadFrac = 0.24;
    p.storeFrac = 0.060;
    p.branchFrac = 0.16;

    // Table 1: stores 7.20, store miss 0.13, load miss 0.14,
    // inst miss 0.01 per 100 instructions.
    p.storeColdProb = 0.0355;
    p.coldStoresPerLine = 1;
    p.storeBurstCont = 0.35;
    // Response-buffer writes: the biggest flush share of the four
    // workloads (drives the paper's 0.22 overlapped fraction).
    p.flushPhaseProb = 0.0000068;
    p.flushLenMean = 600;
    p.flushStoreFrac = 0.07;
    p.flushColdProb = 0.70;
    p.loadColdProb = 0.0058;
    p.loadBurstCont = 0.45;
    p.instColdProb = 0.0001;
    p.instBurstCont = 0.10;

    p.storeMissRegionBytes = 20ULL << 20;
    p.sharedStoreFrac = 0.10;

    p.lockProb = 0.0060;        // store serialize dominates (Fig 3)
    p.hotL1Frac = 0.72;
    p.hotCodeWindowBytes = 2 * 1024;
    p.hotCodeJumpProb = 0.0004;
    p.branchDependsOnLoadProb = 0.03;
    p.csBodyLen = 10;

    p.targetStoresPer100 = 7.20;
    p.targetStoreMissPer100 = 0.13;
    p.targetLoadMissPer100 = 0.14;
    p.targetInstMissPer100 = 0.01;
    p.cpiOnChip = 1.38;
    return p;
}

std::vector<WorkloadProfile>
WorkloadProfile::allCommercial()
{
    return {database(), tpcw(), specjbb(), specweb()};
}

WorkloadProfile
WorkloadProfile::testTiny()
{
    WorkloadProfile p;
    p.name = "TestTiny";
    p.loadFrac = 0.25;
    p.storeFrac = 0.10;
    p.branchFrac = 0.15;
    p.loadColdProb = 0.02;
    p.storeColdProb = 0.03;
    p.instColdProb = 0.0005;
    p.storeMissRegionBytes = 8ULL << 20;
    p.hotDataBytes = 64 * 1024;
    p.hotCodeBytes = 16 * 1024;
    p.lockProb = 0.002;
    p.cpiOnChip = 1.0;
    return p;
}

} // namespace storemlp
