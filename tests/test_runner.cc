/**
 * @file
 * Tests for the experiment runner and the workload calibration: the
 * four commercial profiles must land near the paper's Table 1 / Table
 * 2 / Table 3 values, runs must be deterministic, and multi-chip /
 * SMAC plumbing must work end to end.
 */

#include <gtest/gtest.h>

#include "core/cpi_model.hh"
#include "core/runner.hh"
#include "trace/generator.hh"
#include "sim_test_util.hh"

namespace storemlp
{
namespace
{

// Moderate lengths keep the suite fast; tolerances account for the
// shorter-than-bench measurement interval.
constexpr uint64_t kWarmup = 600 * 1000;
constexpr uint64_t kMeasure = 400 * 1000;

std::string
workloadName(const testing::TestParamInfo<int> &info)
{
    static const char *names[] = {"Database", "TPCW", "SPECjbb",
                                  "SPECweb"};
    return names[info.param];
}

class CalibrationTest : public testing::TestWithParam<int>
{
  protected:
    WorkloadProfile profile() const
    {
        return WorkloadProfile::allCommercial()[GetParam()];
    }
};

TEST_P(CalibrationTest, Table1MissRatesNearPaper)
{
    WorkloadProfile p = profile();
    Runner::MissRates r =
        Runner::measureMissRates(p, 42, kWarmup, kMeasure);

    EXPECT_NEAR(r.storesPer100, p.targetStoresPer100,
                0.06 * p.targetStoresPer100 + 0.1);
    EXPECT_NEAR(r.storeMissPer100, p.targetStoreMissPer100,
                0.45 * p.targetStoreMissPer100 + 0.03);
    EXPECT_NEAR(r.loadMissPer100, p.targetLoadMissPer100,
                0.35 * p.targetLoadMissPer100 + 0.02);
    EXPECT_NEAR(r.instMissPer100, p.targetInstMissPer100,
                0.35 * p.targetInstMissPer100 + 0.02);
}

TEST_P(CalibrationTest, StreamedMissRatesMatchTraceReplay)
{
    // The profile overload streams the generator in O(chunk) memory;
    // it must replay exactly the records of the materialized trace.
    WorkloadProfile p = profile();
    constexpr uint64_t kWarm = 30000;
    constexpr uint64_t kMeas = 70000;
    Runner::MissRates streamed =
        Runner::measureMissRates(p, 42, kWarm, kMeas);
    SyntheticTraceGenerator gen(p, 42, 0);
    Runner::MissRates whole =
        Runner::measureMissRates(gen.generate(kWarm + kMeas), kWarm);

    EXPECT_EQ(streamed.storesPer100, whole.storesPer100);
    EXPECT_EQ(streamed.storeMissPer100, whole.storeMissPer100);
    EXPECT_EQ(streamed.loadMissPer100, whole.loadMissPer100);
    EXPECT_EQ(streamed.instMissPer100, whole.instMissPer100);
    EXPECT_GT(streamed.storesPer100, 0.0);
}

TEST_P(CalibrationTest, Table3OnChipCpiNearPaper)
{
    WorkloadProfile p = profile();
    GeneratorSource src(p, 42, kWarmup + kMeasure);
    CpiModel::Breakdown bd = CpiModel().evaluate(src, kWarmup);
    // Within ~20% of the paper's CPIon-chip.
    EXPECT_NEAR(bd.total(), p.cpiOnChip, 0.20 * p.cpiOnChip + 0.05);
}

TEST_P(CalibrationTest, Table2OverlapInBand)
{
    static const double paper[] = {0.09, 0.12, 0.06, 0.22};
    RunSpec spec;
    spec.profile = profile();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = kWarmup;
    spec.measureInsts = 600 * 1000;
    RunOutput out = test::runMaterialized(spec);
    double target = paper[GetParam()];
    // The fraction is noisy at this scale; require the right band.
    EXPECT_GT(out.sim.overlappedStoreFraction(), target * 0.25);
    EXPECT_LT(out.sim.overlappedStoreFraction(), target * 2.5 + 0.03);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CalibrationTest,
                         testing::Range(0, 4), workloadName);

TEST(Runner, Deterministic)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 20000;
    spec.measureInsts = 60000;

    RunOutput a = test::runMaterialized(spec);
    RunOutput b = test::runMaterialized(spec);
    EXPECT_EQ(a.sim.epochs, b.sim.epochs);
    EXPECT_EQ(a.sim.missLoads, b.sim.missLoads);
    EXPECT_EQ(a.sim.missStores, b.sim.missStores);
    EXPECT_EQ(a.sim.overlappedStores, b.sim.overlappedStores);
    for (unsigned i = 0; i < kNumTermConds; ++i)
        EXPECT_EQ(a.sim.termCounts[i], b.sim.termCounts[i]);
}

TEST(Runner, SeedChangesResults)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 20000;
    spec.measureInsts = 60000;
    RunOutput a = test::runMaterialized(spec);
    spec.seed = 43;
    RunOutput b = test::runMaterialized(spec);
    EXPECT_NE(a.sim.epochMisses, b.sim.epochMisses);
}

TEST(Runner, MeasuresRequestedInstructionCount)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 10000;
    spec.measureInsts = 50000;
    RunOutput out = test::runMaterialized(spec);
    // The generator may overshoot by at most one critical section.
    EXPECT_GE(out.sim.instructions, 50000u);
    EXPECT_LE(out.sim.instructions, 50100u);
}

TEST(Runner, WeakConsistencyRewritesTrace)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::wc1();
    spec.warmupInsts = 20000;
    spec.measureInsts = 60000;
    RunOutput wc = test::runMaterialized(spec);
    // WC runs see the lwarx/stwcx/isync/lwsync rendition, which has
    // strictly more records per lock, but still executes.
    EXPECT_GT(wc.sim.instructions, 0u);
    EXPECT_GT(wc.sim.epochs, 0u);
}

TEST(Runner, SmacReducesEpochs)
{
    RunSpec base;
    base.profile = WorkloadProfile::database();
    base.config = SimConfig::defaults();
    base.config.storePrefetch = StorePrefetch::None;
    base.warmupInsts = 500 * 1000;
    base.measureInsts = 400 * 1000;
    base.numChips = 1;
    RunOutput no_smac = test::runMaterialized(base);

    RunSpec with = base;
    SmacConfig smac;
    smac.entries = 128 * 1024; // covers 256MB > store-miss region
    with.smac = smac;
    RunOutput yes_smac = test::runMaterialized(with);

    EXPECT_LT(yes_smac.sim.epochs, no_smac.sim.epochs);
    EXPECT_GT(yes_smac.sim.smacAcceleratedStores, 0u);
}

TEST(Runner, SmacCoherenceStatsPopulated)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 500 * 1000;
    spec.measureInsts = 300 * 1000;
    spec.numChips = 2;
    spec.peerTraffic = true;
    SmacConfig smac;
    smac.entries = 64 * 1024;
    spec.smac = smac;

    RunOutput out = test::runMaterialized(spec);
    EXPECT_GT(out.peerInstructions, 0u);
    EXPECT_GT(out.smacProbeHits + out.smacProbeHitInvalidated +
                  out.smacCoherenceInvalidates,
              0u);
    EXPECT_GE(out.smacInvalidatesPer1000(), 0.0);
    EXPECT_GE(out.smacHitInvalidPct(), 0.0);
    EXPECT_LE(out.smacHitInvalidPct(), 100.0);
}

TEST(Runner, MoreNodesMoreInvalidates)
{
    // SMAC entries only form once the shared L2 cycles, so this needs
    // the sibling core and a longer horizon (cf. bench/fig6).
    auto run_nodes = [](uint32_t n) {
        RunSpec spec;
        spec.profile = WorkloadProfile::database();
        spec.config = SimConfig::defaults();
        spec.config.storePrefetch = StorePrefetch::None;
        spec.warmupInsts = 2000 * 1000;
        spec.measureInsts = 1000 * 1000;
        spec.numChips = n;
        spec.peerTraffic = true;
        spec.siblingCore = true;
        SmacConfig smac;
        smac.entries = 128 * 1024;
        spec.smac = smac;
        return test::runMaterialized(spec);
    };
    RunOutput two = run_nodes(2);
    RunOutput four = run_nodes(4);
    EXPECT_GT(two.smacCoherenceInvalidates, 0u);
    EXPECT_GT(four.smacCoherenceInvalidates,
              two.smacCoherenceInvalidates);
}

TEST(Runner, MoesiProtocolPassesThrough)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 20000;
    spec.measureInsts = 40000;
    spec.numChips = 2;
    spec.peerTraffic = true;
    spec.protocol = CoherenceProtocol::Moesi;
    RunOutput out = test::runMaterialized(spec);
    EXPECT_GT(out.sim.epochs, 0u);
}

TEST(Runner, HierarchyOverridePlumbsThrough)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 20000;
    spec.measureInsts = 60000;

    RunOutput paper = test::runMaterialized(spec);

    // A 64KB direct-mapped-ish L2 must miss far more than the paper's
    // 2MB default on the same trace.
    HierarchyConfig tiny;
    tiny.l2.sizeBytes = 64 * 1024;
    tiny.l2.assoc = 2;
    spec.hierarchy = tiny;
    RunOutput small = test::runMaterialized(spec);

    EXPECT_GT(small.sim.missLoads + small.sim.missStores,
              paper.sim.missLoads + paper.sim.missStores);
    // Unset optional reproduces the default exactly.
    spec.hierarchy.reset();
    RunOutput again = test::runMaterialized(spec);
    EXPECT_EQ(again.sim.missLoads, paper.sim.missLoads);
    EXPECT_EQ(again.sim.missStores, paper.sim.missStores);
    EXPECT_EQ(again.sim.epochs, paper.sim.epochs);
}

TEST(Runner, PrefillCanBeDisabled)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 20000;
    spec.measureInsts = 40000;
    spec.prefillL2 = false;
    RunOutput cold = test::runMaterialized(spec);
    spec.prefillL2 = true;
    RunOutput full = test::runMaterialized(spec);
    // A pre-filled L2 can only raise conflict/capacity pressure.
    EXPECT_GE(full.sim.missLoads + full.sim.missStores + 5,
              cold.sim.missLoads + cold.sim.missStores);
}

} // namespace
} // namespace storemlp
