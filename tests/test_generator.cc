/**
 * @file
 * Unit tests for the synthetic trace generator: determinism, mix
 * calibration, address-space discipline, lock idioms.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "trace/generator.hh"

namespace storemlp
{
namespace
{

constexpr uint64_t kN = 200000;

TEST(Generator, DeterministicForSameSeed)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    Trace a = SyntheticTraceGenerator(p, 7).generate(10000);
    Trace b = SyntheticTraceGenerator(p, 7).generate(10000);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].cls, b[i].cls);
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    Trace a = SyntheticTraceGenerator(p, 1).generate(1000);
    Trace b = SyntheticTraceGenerator(p, 2).generate(1000);
    size_t same = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].cls == b[i].cls && a[i].addr == b[i].addr)
            ++same;
    }
    EXPECT_LT(same, a.size());
}

TEST(Generator, GeneratesRequestedCount)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    Trace t = SyntheticTraceGenerator(p, 3).generate(12345);
    // Critical sections are emitted atomically, so the count may
    // overshoot by at most one critical section.
    EXPECT_GE(t.size(), 12345u);
    EXPECT_LE(t.size(), 12345u + 3 * p.csBodyLen + 2);
}

TEST(Generator, StreamingMatchesOneShot)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    SyntheticTraceGenerator g1(p, 5), g2(p, 5);
    Trace whole = g1.generate(5000);
    std::vector<TraceRecord> piecewise;
    g2.generateInto(piecewise, 2500);
    g2.generateInto(piecewise, whole.size() - piecewise.size());
    ASSERT_EQ(piecewise.size(), whole.size());
    for (size_t i = 0; i < whole.size(); ++i)
        EXPECT_EQ(piecewise[i].addr, whole[i].addr);
}

TEST(Generator, MixMatchesProfileFractions)
{
    WorkloadProfile p = WorkloadProfile::database();
    Trace t = SyntheticTraceGenerator(p, 11).generate(kN);
    Trace::Mix m = t.mix();
    double n = static_cast<double>(m.total);
    // Stores include critical-section stores; allow headroom.
    EXPECT_NEAR(m.stores / n, p.storeFrac, 0.02);
    EXPECT_NEAR(m.loads / n, p.loadFrac, 0.02);
    EXPECT_NEAR(m.branches / n, p.branchFrac, 0.02);
}

TEST(Generator, LockSequencesWellFormed)
{
    WorkloadProfile p = WorkloadProfile::specjbb(); // high lock rate
    Trace t = SyntheticTraceGenerator(p, 13).generate(kN);
    uint64_t acquires = 0, releases = 0;
    int64_t open = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].lockAcquire()) {
            EXPECT_EQ(t[i].cls, InstClass::AtomicCas);
            ++acquires;
            ++open;
            EXPECT_LE(open, 1) << "nested critical section at " << i;
        }
        if (t[i].lockRelease()) {
            EXPECT_EQ(t[i].cls, InstClass::Store);
            ++releases;
            --open;
            EXPECT_GE(open, 0);
        }
    }
    EXPECT_EQ(acquires, releases);
    EXPECT_GT(acquires, kN * p.lockProb / 2);
}

TEST(Generator, AcquireReleaseAddressesMatch)
{
    WorkloadProfile p = WorkloadProfile::specweb();
    Trace t = SyntheticTraceGenerator(p, 17).generate(50000);
    uint64_t open_addr = 0;
    bool open = false;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].lockAcquire()) {
            open_addr = t[i].addr;
            open = true;
        } else if (t[i].lockRelease()) {
            ASSERT_TRUE(open);
            EXPECT_EQ(t[i].addr, open_addr);
            open = false;
        }
    }
}

TEST(Generator, LockAddressesInLockRegion)
{
    WorkloadProfile p = WorkloadProfile::tpcw();
    Trace t = SyntheticTraceGenerator(p, 19).generate(50000);
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].lockAcquire()) {
            EXPECT_GE(t[i].addr, AddressMap::kLockBase);
            EXPECT_LT(t[i].addr,
                      AddressMap::kLockBase +
                          p.lockCount * 64ull);
        }
    }
}

TEST(Generator, ColdLoadsAreFreshLines)
{
    WorkloadProfile p = WorkloadProfile::database();
    Trace t = SyntheticTraceGenerator(p, 23).generate(kN);
    std::unordered_set<uint64_t> cold_lines;
    for (size_t i = 0; i < t.size(); ++i) {
        const TraceRecord &r = t[i];
        if (r.cls == InstClass::Load &&
            r.addr >= AddressMap::kColdLoadBase) {
            uint64_t line = r.addr & ~63ull;
            EXPECT_TRUE(cold_lines.insert(line).second)
                << "cold load line revisited";
        }
    }
    EXPECT_GT(cold_lines.size(), 100u);
}

TEST(Generator, StoreMissAddressesInRegions)
{
    WorkloadProfile p = WorkloadProfile::database();
    Trace t = SyntheticTraceGenerator(p, 29).generate(kN);
    uint64_t priv = 0, shared = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        const TraceRecord &r = t[i];
        if (!isStoreClass(r.cls))
            continue;
        if (r.addr >= AddressMap::kPrivateStoreBase &&
            r.addr < AddressMap::kPrivateStoreBase +
                         p.storeMissRegionBytes) {
            ++priv;
        } else if (r.addr >= AddressMap::kSharedStoreBase &&
                   r.addr < AddressMap::kSharedStoreBase +
                                p.sharedStoreRegionBytes) {
            ++shared;
        }
    }
    EXPECT_GT(priv, 0u);
    EXPECT_GT(shared, 0u);
    // Shared fraction should be roughly profile.sharedStoreFrac.
    double frac = static_cast<double>(shared) /
        static_cast<double>(priv + shared);
    EXPECT_NEAR(frac, p.sharedStoreFrac, 0.08);
}

TEST(Generator, DistinctChipsUseDistinctPrivateRegions)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    Trace t0 = SyntheticTraceGenerator(p, 31, 0).generate(20000);
    Trace t1 = SyntheticTraceGenerator(p, 31, 1).generate(20000);

    auto priv_base = [](uint32_t chip) {
        return AddressMap::kPrivateStoreBase +
            chip * AddressMap::kPrivateStoreStride;
    };
    for (size_t i = 0; i < t1.size(); ++i) {
        const TraceRecord &r = t1[i];
        if (!isStoreClass(r.cls))
            continue;
        bool in_chip0_private = r.addr >= priv_base(0) &&
            r.addr < priv_base(0) + p.storeMissRegionBytes;
        EXPECT_FALSE(in_chip0_private)
            << "chip 1 store in chip 0's private region";
    }
    (void)t0;
}

TEST(Generator, BranchesCarryOutcomes)
{
    WorkloadProfile p = WorkloadProfile::database();
    Trace t = SyntheticTraceGenerator(p, 37).generate(50000);
    uint64_t taken = 0, total = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].cls == InstClass::Branch) {
            ++total;
            taken += t[i].taken() ? 1 : 0;
        }
    }
    ASSERT_GT(total, 1000u);
    double frac = static_cast<double>(taken) / static_cast<double>(total);
    EXPECT_GT(frac, 0.3);
    EXPECT_LT(frac, 0.7);
}

TEST(Generator, RegistersWithinRange)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    Trace t = SyntheticTraceGenerator(p, 41).generate(20000);
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_LT(t[i].dst, 64);
        EXPECT_LT(t[i].src1, 64);
        EXPECT_LT(t[i].src2, 64);
    }
}

TEST(Generator, HotCodeStaysInRegion)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    p.instColdProb = 0.0;
    Trace t = SyntheticTraceGenerator(p, 43).generate(20000);
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i].pc, AddressMap::kHotCodeBase);
        EXPECT_LT(t[i].pc, AddressMap::kHotCodeBase + p.hotCodeBytes);
    }
}

TEST(Generator, ColdCodeExcursionsVisitFreshLines)
{
    WorkloadProfile p = WorkloadProfile::testTiny();
    p.instColdProb = 0.01;
    Trace t = SyntheticTraceGenerator(p, 47).generate(50000);
    std::unordered_set<uint64_t> cold_pcs;
    uint64_t cold = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        // Branches snap to shared per-32B sites; skip them here.
        if (t[i].cls == InstClass::Branch)
            continue;
        if (t[i].pc >= AddressMap::kColdCodeBase) {
            ++cold;
            cold_pcs.insert(t[i].pc);
        }
    }
    EXPECT_GT(cold, 100u);
    // Each non-branch excursion pc is unique (monotone cold cursor).
    EXPECT_EQ(cold_pcs.size(), cold);
}

TEST(Generator, AllCommercialProfilesNamed)
{
    auto all = WorkloadProfile::allCommercial();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].name, "Database");
    EXPECT_EQ(all[1].name, "TPC-W");
    EXPECT_EQ(all[2].name, "SPECjbb");
    EXPECT_EQ(all[3].name, "SPECweb");
}

} // namespace
} // namespace storemlp
