/**
 * @file
 * Tests for the N-core contention runner: determinism (repeated runs,
 * worker-pool concurrency, quantum granularity), the paper's two-core
 * chip (N=2/M=1, the DualCore cases, also against a core running
 * alone), contention-knob behaviour on the real snoop bus, and
 * topology validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/multi_core.hh"
#include "core/sweep.hh"
#include "sim_test_util.hh"
#include "util/error.hh"

namespace storemlp
{
namespace
{

MultiRunSpec
tinySpec(uint32_t cores = 2, uint32_t chips = 1)
{
    MultiRunSpec spec;
    spec.profile = WorkloadProfile::testTiny();
    spec.config = SimConfig::defaults();
    spec.warmupInsts = 50 * 1000;
    spec.measureInsts = 100 * 1000;
    spec.cores = cores;
    spec.chips = chips;
    return spec;
}

TEST(MultiCore, RejectsDegenerateTopology)
{
    MultiRunSpec spec = tinySpec();
    spec.cores = 0;
    EXPECT_THROW(MultiCoreRunner::run(spec), ConfigError);
    spec = tinySpec();
    spec.chips = 0;
    EXPECT_THROW(MultiCoreRunner::run(spec), ConfigError);
    spec = tinySpec(2, 3);
    EXPECT_THROW(MultiCoreRunner::run(spec), ConfigError);
    spec = tinySpec();
    spec.quantum = 0;
    EXPECT_THROW(MultiCoreRunner::run(spec), ConfigError);
}

TEST(MultiCore, RejectsGeometryTheChipsCannotIndex)
{
    // The same checks as a single-core run (buildChips): a ConfigError
    // instead of a cache or SMAC constructor assert.
    MultiRunSpec spec = tinySpec(4, 2);
    HierarchyConfig hier;
    hier.l2.assoc = 3;
    spec.hierarchy = hier;
    EXPECT_THROW(MultiCoreRunner::run(spec), ConfigError);
    spec = tinySpec(4, 2);
    SmacConfig smac;
    smac.entries = 3;
    spec.smac = smac;
    EXPECT_THROW(MultiCoreRunner::run(spec), ConfigError);
}

TEST(MultiCore, ContentionKnobsAreFractions)
{
    // --shared-frac and --lock-prob replace profile keys, so they get
    // the profile's check: finite, in [0, 1].
    for (double bad : {-0.1, 1.5, std::nan("")}) {
        MultiRunSpec spec = tinySpec(2, 1);
        spec.sharedStoreFrac = bad;
        EXPECT_THROW(MultiCoreRunner::run(spec), ConfigError) << bad;
        spec = tinySpec(2, 1);
        spec.lockProb = bad;
        EXPECT_THROW(MultiCoreRunner::run(spec), ConfigError) << bad;
    }
}

TEST(MultiCore, EveryCoreMeasures)
{
    MultiRunOutput out = MultiCoreRunner::run(tinySpec(4, 2));
    ASSERT_EQ(out.cores.size(), 4u);
    for (const SimResult &r : out.cores) {
        EXPECT_GT(r.instructions, 90 * 1000u);
        EXPECT_GT(r.epochs, 0u);
    }
    EXPECT_EQ(out.combined.instructions,
              out.cores[0].instructions + out.cores[1].instructions +
                  out.cores[2].instructions + out.cores[3].instructions);
    EXPECT_GT(out.combinedEpochsPer1000(), 0.0);
}

TEST(MultiCore, RepeatedRunsBitIdentical)
{
    MultiRunOutput a = MultiCoreRunner::run(tinySpec(4, 2));
    MultiRunOutput b = MultiCoreRunner::run(tinySpec(4, 2));
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (size_t i = 0; i < a.cores.size(); ++i)
        EXPECT_EQ(a.cores[i], b.cores[i]) << "core " << i;
    EXPECT_EQ(a.busInvalidations, b.busInvalidations);
    EXPECT_EQ(a.busDirtyTransfers, b.busDirtyTransfers);
    EXPECT_EQ(a.machine, b.machine);
}

TEST(MultiCore, DeterministicAcrossWorkerPools)
{
    // Four independent runs executed serially and on a 4-worker pool
    // must agree slot for slot: MultiCoreRunner shares no mutable
    // state between invocations.
    auto batch = [](unsigned jobs) {
        std::vector<MultiRunOutput> outs(4);
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 4; ++i) {
            tasks.push_back([&outs, i] {
                MultiRunSpec spec = tinySpec(3, i % 2 ? 3 : 1);
                spec.seed = 42 + i;
                outs[i] = MultiCoreRunner::run(spec);
            });
        }
        for (const TaskStatus &st : parallelForEach(tasks, jobs))
            EXPECT_TRUE(st.ok) << st.errorMessage;
        return outs;
    };
    std::vector<MultiRunOutput> serial = batch(1);
    std::vector<MultiRunOutput> pooled = batch(4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(serial[i].cores, pooled[i].cores) << "slot " << i;
        EXPECT_EQ(serial[i].busInvalidations, pooled[i].busInvalidations)
            << "slot " << i;
    }
}

TEST(MultiCore, QuantumPreservesMeasuredInstructions)
{
    // The number of measured records is streamLen - warmup no matter
    // how the interleaving quantizes: the warmup boundary is honoured
    // exactly even when warmup % quantum != 0 (50000 % 256 = 80,
    // 50000 % 192 = 72).
    std::vector<uint64_t> quanta = {1, 64, 256, 192};
    std::vector<MultiRunOutput> outs;
    for (uint64_t q : quanta) {
        MultiRunSpec spec = tinySpec(2, 2);
        spec.quantum = q;
        outs.push_back(MultiCoreRunner::run(spec));
    }
    for (size_t i = 1; i < outs.size(); ++i) {
        ASSERT_EQ(outs[i].cores.size(), outs[0].cores.size());
        for (size_t c = 0; c < outs[0].cores.size(); ++c) {
            EXPECT_EQ(outs[i].cores[c].instructions,
                      outs[0].cores[c].instructions)
                << "quantum " << quanta[i] << " core " << c;
        }
    }
    // Interleaving granularity perturbs which accesses collide on the
    // bus, but the ping-pong invalidation picture must stay stable.
    for (size_t i = 1; i < outs.size(); ++i) {
        double a = static_cast<double>(outs[0].busInvalidations);
        double b = static_cast<double>(outs[i].busInvalidations);
        EXPECT_NEAR(a, b, 0.30 * std::max(a, b) + 16.0)
            << "quantum " << quanta[i];
    }
}

// The paper's two-core chip: two cores sharing one L2, no snoop bus.

TEST(DualCore, BothCoresMeasure)
{
    MultiRunOutput out = MultiCoreRunner::run(tinySpec(2, 1));
    ASSERT_EQ(out.cores.size(), 2u);
    EXPECT_GT(out.cores[0].instructions, 90 * 1000u);
    EXPECT_GT(out.cores[1].instructions, 90 * 1000u);
    EXPECT_GT(out.cores[0].epochs, 0u);
    EXPECT_GT(out.cores[1].epochs, 0u);
    EXPECT_GT(out.combinedEpochsPer1000(), 0.0);
}

TEST(DualCore, Deterministic)
{
    MultiRunOutput a = MultiCoreRunner::run(tinySpec(2, 1));
    MultiRunOutput b = MultiCoreRunner::run(tinySpec(2, 1));
    ASSERT_EQ(a.cores.size(), 2u);
    ASSERT_EQ(b.cores.size(), 2u);
    EXPECT_EQ(a.cores[0].epochs, b.cores[0].epochs);
    EXPECT_EQ(a.cores[1].epochs, b.cores[1].epochs);
    EXPECT_EQ(a.cores[0].epochMisses, b.cores[0].epochMisses);
}

TEST(DualCore, CoresSeeDifferentStreams)
{
    MultiRunOutput out = MultiCoreRunner::run(tinySpec(2, 1));
    ASSERT_EQ(out.cores.size(), 2u);
    // Different seeds and region ids: the cores' statistics differ.
    EXPECT_NE(out.cores[0].epochMisses, out.cores[1].epochMisses);
}

TEST(DualCore, SharingRaisesPressureOverSoloCore)
{
    // The same core 0 workload, alone on the chip, should see no more
    // misses than when a sibling competes for the shared L2.
    MultiRunSpec dspec = tinySpec(2, 1);
    dspec.profile = WorkloadProfile::database();
    dspec.warmupInsts = 300 * 1000;
    dspec.measureInsts = 400 * 1000;
    MultiRunOutput dual = MultiCoreRunner::run(dspec);

    RunSpec solo;
    solo.profile = dspec.profile;
    solo.config = dspec.config;
    solo.warmupInsts = dspec.warmupInsts;
    solo.measureInsts = dspec.measureInsts;
    RunOutput alone = test::runMaterialized(solo);

    const SimResult &core0 = dual.cores[0];
    uint64_t dual_misses = core0.missLoads + core0.missStores;
    uint64_t solo_misses = alone.sim.missLoads + alone.sim.missStores;
    EXPECT_GE(dual_misses * 102, solo_misses * 100)
        << "sharing the L2 should not reduce core 0's misses";
}

TEST(DualCore, QuantumDoesNotChangeTotalsMuch)
{
    MultiRunSpec a = tinySpec(2, 1);
    a.quantum = 64;
    MultiRunSpec b = tinySpec(2, 1);
    b.quantum = 1024;
    MultiRunOutput ra = MultiCoreRunner::run(a);
    MultiRunOutput rb = MultiCoreRunner::run(b);
    // Interleaving granularity perturbs cache interleaving slightly
    // but must not change the picture.
    double ea = ra.combinedEpochsPer1000();
    double eb = rb.combinedEpochsPer1000();
    EXPECT_NEAR(ea, eb, 0.25 * std::max(ea, eb));
}

TEST(DualCore, WarmupBoundaryExactWhenQuantumDoesNotDivide)
{
    // The measured instruction count must be streamLen - warmup no
    // matter the interleaving granularity, also when the warmup is not
    // a multiple of the quantum (50000 % 256 = 80, 50000 % 192 = 72).
    std::vector<uint64_t> quanta = {1, 64, 256, 192};
    std::vector<MultiRunOutput> outs;
    for (uint64_t q : quanta) {
        MultiRunSpec spec = tinySpec(2, 1);
        spec.quantum = q;
        outs.push_back(MultiCoreRunner::run(spec));
    }
    for (size_t i = 1; i < outs.size(); ++i) {
        ASSERT_EQ(outs[i].cores.size(), 2u);
        EXPECT_EQ(outs[i].cores[0].instructions,
                  outs[0].cores[0].instructions)
            << "quantum " << quanta[i];
        EXPECT_EQ(outs[i].cores[1].instructions,
                  outs[0].cores[1].instructions)
            << "quantum " << quanta[i];
    }
}

TEST(DualCore, WeakConsistencySupported)
{
    MultiRunSpec spec = tinySpec(2, 1);
    spec.config.memoryModel = ModelDescriptor::wc();
    MultiRunOutput out = MultiCoreRunner::run(spec);
    ASSERT_EQ(out.cores.size(), 2u);
    EXPECT_GT(out.cores[0].epochs, 0u);
}

TEST(MultiCore, SingleChipHasNoBusTraffic)
{
    MultiRunOutput out = MultiCoreRunner::run(tinySpec(4, 1));
    EXPECT_EQ(out.busInvalidations, 0u);
    EXPECT_EQ(out.busDirtyTransfers, 0u);
    EXPECT_FALSE(out.machine.has("coherence.invalidations"));
}

TEST(MultiCore, SharedStoresDriveBusInvalidations)
{
    MultiRunSpec low = tinySpec(4, 4);
    low.sharedStoreFrac = 0.02;
    MultiRunSpec high = tinySpec(4, 4);
    high.sharedStoreFrac = 0.40;
    MultiRunOutput lo = MultiCoreRunner::run(low);
    MultiRunOutput hi = MultiCoreRunner::run(high);
    EXPECT_GT(lo.busInvalidations, 0u);
    EXPECT_GT(hi.busInvalidations, lo.busInvalidations)
        << "raising the shared-store fraction must raise cross-chip "
           "invalidation traffic";
}

TEST(MultiCore, MoesiSuppliesDirtyTransfers)
{
    MultiRunSpec spec = tinySpec(4, 4);
    spec.protocol = CoherenceProtocol::Moesi;
    spec.sharedStoreFrac = 0.30;
    MultiRunOutput out = MultiCoreRunner::run(spec);
    // Shared data written by one chip and read by another crosses the
    // bus as a dirty (Modified or Owned) cache-to-cache transfer.
    EXPECT_GT(out.busDirtyTransfers, 0u);
    EXPECT_EQ(out.busDirtyTransfers,
              out.machine.getCounter("coherence.dirtyTransfers"));
}

TEST(MultiCore, ExportStatsCarriesTopologyAndPerCore)
{
    MultiRunOutput out = MultiCoreRunner::run(tinySpec(3, 2));
    StatsRegistry reg;
    out.exportStats(reg);
    EXPECT_EQ(reg.getCounter("multicore.cores"), 3u);
    EXPECT_EQ(reg.getCounter("multicore.chips"), 2u);
    EXPECT_EQ(reg.getCounter("core.instructions"),
              out.combined.instructions);
    EXPECT_EQ(reg.getCounter("cpu0.core.instructions"),
              out.cores[0].instructions);
    EXPECT_EQ(reg.getCounter("cpu2.core.instructions"),
              out.cores[2].instructions);
    EXPECT_TRUE(reg.has("chip0.cache.l2Accesses"));
    EXPECT_TRUE(reg.has("chip1.cache.l2Accesses"));
    EXPECT_TRUE(reg.has("derived.busInvalidationsPer1000"));
}

TEST(MultiCore, LockDensityKnobTakesEffect)
{
    // Raising lockProb changes the synthesized streams (more
    // critical sections); the runs must still be deterministic and
    // the knob must actually reach the generator.
    MultiRunSpec base = tinySpec(2, 2);
    MultiRunSpec locky = tinySpec(2, 2);
    locky.lockProb = 0.05;
    MultiRunOutput a = MultiCoreRunner::run(base);
    MultiRunOutput b = MultiCoreRunner::run(locky);
    EXPECT_NE(a.cores[0], b.cores[0])
        << "lockProb override did not reach the trace generator";
}

} // namespace
} // namespace storemlp
