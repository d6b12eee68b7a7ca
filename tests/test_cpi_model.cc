/**
 * @file
 * Unit tests for the on-chip CPI model (Section 3.4).
 */

#include <gtest/gtest.h>

#include "core/cpi_model.hh"
#include "core/sim_result.hh"
#include "trace/generator.hh"
#include "trace/trace_source.hh"

namespace storemlp
{
namespace
{

CpiModel::Breakdown
evaluate(const CpiModel &m, const Trace &trace, uint64_t warmup = 0)
{
    MaterializedSource src(trace);
    return m.evaluate(src, warmup);
}

TEST(CpiModel, EmptyTraceIsZero)
{
    CpiModel m;
    CpiModel::Breakdown b = evaluate(m, Trace());
    EXPECT_DOUBLE_EQ(b.total(), 0.0);
}

TEST(CpiModel, AllHitAluStreamIsBaseCpi)
{
    TraceBuilder tb;
    for (int i = 0; i < 2000; ++i)
        tb.alu(1, 2, 3).atPc(0x1000); // one fetch line: no L1I misses
    CpiModel m;
    CpiModel::Breakdown b = evaluate(m, tb.build(), 1000);
    EXPECT_DOUBLE_EQ(b.loadUse, 0.0);
    EXPECT_DOUBLE_EQ(b.l1dMiss, 0.0);
    EXPECT_DOUBLE_EQ(b.branch, 0.0);
    EXPECT_NEAR(b.total(), m.params().baseCpi, 1e-9);
}

TEST(CpiModel, LoadsAddLoadUseComponent)
{
    TraceBuilder tb;
    for (int i = 0; i < 2000; ++i)
        tb.load(0x1000, 1).atPc(0x1000); // one data+fetch line
    CpiModel m;
    CpiModel::Breakdown b = evaluate(m, tb.build(), 1000);
    EXPECT_GT(b.loadUse, 0.0);
    EXPECT_DOUBLE_EQ(b.l1dMiss, 0.0);
}

TEST(CpiModel, L1ThrashingAddsL1dComponent)
{
    // Loads striding over 256KB: mostly L1 misses (32KB L1).
    TraceBuilder tb;
    for (int i = 0; i < 8000; ++i)
        tb.load(0x100000 + (i % 4096) * 64, 1);
    CpiModel m;
    CpiModel::Breakdown b = evaluate(m, tb.build(), 4000);
    EXPECT_GT(b.l1dMiss, 0.1);
}

TEST(CpiModel, MispredictsAddBranchComponent)
{
    // Branches with alternating outcomes at many different pcs: the
    // cold predictor mispredicts plenty.
    TraceBuilder tb;
    for (int i = 0; i < 4000; ++i)
        tb.branch(i % 3 == 0, 1).atPc(0x1000 + (i % 512) * 64);
    CpiModel m;
    CpiModel::Breakdown b = evaluate(m, tb.build(), 0);
    EXPECT_GT(b.branch, 0.0);
}

TEST(CpiModel, StoresDoNotStallOnChip)
{
    // Write-through no-write-allocate L1D: a pure store stream adds
    // nothing beyond base CPI.
    TraceBuilder tb;
    for (int i = 0; i < 2000; ++i)
        tb.store(0x200000 + i * 64, 1).atPc(0x1000);
    CpiModel m;
    CpiModel::Breakdown b = evaluate(m, tb.build(), 1000);
    EXPECT_NEAR(b.total(), m.params().baseCpi, 1e-9);
}

TEST(CpiModel, OverallCpiComposition)
{
    // CPIoverall = CPIon-chip(1-overlap) + EPI x MissPenalty: check
    // the off-chip term from SimResult composes linearly.
    SimResult res;
    res.instructions = 1000;
    res.epochs = 5;
    EXPECT_NEAR(res.offChipCpi(500), 2.5, 1e-12);
}

TEST(CpiModel, ParamsArePluggable)
{
    CpiModelParams params;
    params.baseCpi = 1.5;
    CpiModel m(params);
    TraceBuilder tb;
    for (int i = 0; i < 100; ++i)
        tb.alu().atPc(0x1000);
    // One compulsory L1I miss on the single line; warm past it.
    EXPECT_NEAR(evaluate(m, tb.build(), 10).total(), 1.5, 1e-9);
}

} // namespace
} // namespace storemlp
