/**
 * @file
 * Shared helpers for epoch-engine unit tests: a rig that pre-warms
 * the caches for every address/pc except designated "missing" ones,
 * so hand-written traces have fully controlled miss behaviour.
 */

#ifndef STOREMLP_TESTS_SIM_TEST_UTIL_HH
#define STOREMLP_TESTS_SIM_TEST_UTIL_HH

#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_set>

#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "core/runner.hh"
#include "trace/generator.hh"
#include "trace/rewriter.hh"
#include "trace/trace.hh"
#include "trace/trace_source.hh"
#include "trace_test_util.hh"

namespace storemlp::test
{

/**
 * The spec's record stream as one whole trace: a fresh generator
 * drained in one call, then the whole-trace WC rewrite, with no chunk
 * boundaries. The reference that streamed runs are held to.
 */
inline Trace
wholeTrace(const RunSpec &spec)
{
    SyntheticTraceGenerator gen(spec.profile, spec.seed, 0);
    Trace trace = gen.generate(spec.warmupInsts + spec.measureInsts);
    if (spec.config.memoryModel.wcTraceRewrite())
        trace = TraceRewriter().toWeakConsistency(trace);
    return trace;
}

/** Runner::run over a prebuilt trace (must already reflect the model). */
inline RunOutput
runMaterialized(const RunSpec &spec, const Trace &trace)
{
    MaterializedSource src(trace);
    return Runner::run(spec, src);
}

/** Runner::run over wholeTrace(spec). Tests that don't exercise
 *  streaming go through here. */
inline RunOutput
runMaterialized(const RunSpec &spec)
{
    return runMaterialized(spec, wholeTrace(spec));
}

/** Two runs agree on the engine's result and the Table-1 rates. */
inline void
expectSameRun(const RunOutput &got, const RunOutput &want,
              const std::string &what)
{
    EXPECT_EQ(got.sim, want.sim) << what;
    EXPECT_EQ(got.storesPer100, want.storesPer100) << what;
    EXPECT_EQ(got.storeMissPer100, want.storeMissPer100) << what;
    EXPECT_EQ(got.loadMissPer100, want.loadMissPer100) << what;
    EXPECT_EQ(got.l2Accesses, want.l2Accesses) << what;
    EXPECT_EQ(got.tlbMissPer100, want.tlbMissPer100) << what;
}

/** The spec's generated stream as openRunSource composes it. */
inline std::unique_ptr<TraceSource>
openRun(const RunSpec &spec, uint64_t chunk_insts = 0)
{
    return openRunSource(SourceSpec::forRun(spec, chunk_insts));
}

/** Addresses guaranteed to be off-chip misses (never warmed). */
inline uint64_t
missAddr(unsigned k)
{
    return 0x90000000ULL + k * 64;
}

/** A pc line guaranteed to be an off-chip instruction miss. */
inline uint64_t
missPc(unsigned k)
{
    return 0xA0000000ULL + k * 64;
}

/** A warm (always L2-hit) data address. */
inline uint64_t
warmAddr(unsigned k)
{
    return 0x100000ULL + k * 64;
}

/**
 * Test rig: one chip, optional SMAC, caches pre-warmed for everything
 * the trace touches except addresses/pcs in the miss ranges above.
 */
class SimRig
{
  public:
    explicit SimRig(std::optional<SmacConfig> smac = std::nullopt)
        : chip(HierarchyConfig{}, 0, smac)
    {
    }

    /** Warm every pc and address outside the miss ranges. */
    void
    warmFor(const Trace &trace)
    {
        for (const auto &r : trace.records()) {
            if (r.pc < 0xA0000000ULL)
                chip.instFetch(r.pc);
            if (isMemClass(r.cls) &&
                !(r.addr >= 0x90000000ULL && r.addr < 0xA0000000ULL)) {
                chip.load(r.addr);
            }
        }
        chip.resetStats();
    }

    /** Analyze locks, warm, run, and return the results. */
    SimResult
    run(const Trace &trace, const SimConfig &cfg)
    {
        locks = analyzeTrace(trace);
        warmFor(trace);
        MlpSimulator sim(cfg, chip, &locks);
        MaterializedSource src(trace);
        return sim.run(src);
    }

    ChipNode chip;
    LockAnalysis locks;
};

/** Append `n` filler ALU instructions (forces window-full stalls). */
inline TraceBuilder &
fillers(TraceBuilder &b, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        b.alu();
    return b;
}

/** Configuration used by the paper's Examples 1-4: SB=2, SQ=2, Sp0. */
inline SimConfig
exampleConfig()
{
    SimConfig cfg;
    cfg.storeBufferSize = 2;
    cfg.storeQueueSize = 2;
    cfg.storePrefetch = StorePrefetch::None;
    cfg.cpiOnChip = 1.0;
    return cfg;
}

} // namespace storemlp::test

#endif // STOREMLP_TESTS_SIM_TEST_UTIL_HH
