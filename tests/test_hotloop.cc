/**
 * @file
 * Hot-loop equivalence suite: pins the simulator's observable results
 * against goldens recorded *before* the throughput restructuring
 * (SoA chunk lanes, devirtualized dispatch, cache way memos, batched
 * bookkeeping), so any optimization that changes a single counter,
 * histogram bucket or cycle count fails here.
 *
 * Every case renders its full stats registry (SimResult or RunOutput,
 * machine counters included) to the schemaVersion-1 JSON text — whose
 * number formatting round-trips exactly — and hashes it with FNV-1a.
 * The hashes live in tests/golden/hotloop.golden; regenerate with
 *
 *   STOREMLP_HOTLOOP_REGEN=1 ./tests/test_hotloop
 *
 * ONLY when a semantic change is intended and reviewed. The matrix
 * covers all shipped configs (PC1-PC3, WC1-WC3, scout, TM, SMAC,
 * multi-chip peer traffic, sibling core), materialized vs generator vs
 * on-disk v4 sources, chunk sizes 1 / non-divisor / default,
 * jobs=1 vs jobs=4 sweeps, and the N-core runner (`multi/`, the
 * paper's two-core chip among it). The
 * `gen/` entries hash the raw record streams of every profile at the
 * generator ids the multi-core runner hands out, so a generator
 * change that keeps run stats but moves a record fails here too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "core/multi_core.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "stats/stats_json.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "sim_test_util.hh"

using namespace storemlp;

namespace
{

constexpr uint64_t kWarmup = 20000;
constexpr uint64_t kMeasure = 40000;

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Hash a registry as its serialized document, with the envelope's
 * schemaVersion pinned to 1: the goldens were recorded before the v2
 * envelope existed, and the version token is presentation, not
 * simulation — pinning it keeps the pre-optimization anchors valid
 * across schema bumps.
 */
std::string
hashRegistry(const StatsRegistry &reg)
{
    std::string doc = statsToJson(reg, StatsMeta{}, false);
    const std::string tag =
        "\"schemaVersion\":" + std::to_string(kStatsSchemaVersion);
    size_t pos = doc.find(tag);
    if (pos != std::string::npos)
        doc.replace(pos, tag.size(), "\"schemaVersion\":1");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(doc)));
    return buf;
}

std::string
hashRunOutput(const RunOutput &out)
{
    StatsRegistry reg;
    out.exportStats(reg);
    return hashRegistry(reg);
}

std::string
hashSimResult(const SimResult &res)
{
    StatsRegistry reg;
    res.exportStats(reg);
    return hashRegistry(reg);
}

std::string
hashMultiRunOutput(const MultiRunOutput &out)
{
    StatsRegistry reg;
    out.exportStats(reg);
    return hashRegistry(reg);
}

/** FNV-1a over every field of every record, in stream order. */
std::string
hashTrace(const Trace &trace)
{
    std::string bytes;
    bytes.reserve(trace.size() * 21);
    for (const TraceRecord &r : trace.records()) {
        bytes.append(reinterpret_cast<const char *>(&r.pc), sizeof(r.pc));
        bytes.append(reinterpret_cast<const char *>(&r.addr),
                     sizeof(r.addr));
        for (uint8_t b : {static_cast<uint8_t>(r.cls), r.size, r.dst,
                          r.src1, r.src2, r.flags})
            bytes.push_back(static_cast<char>(b));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(bytes)));
    return buf;
}

RunSpec
baseSpec(SimConfig cfg)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.config = std::move(cfg);
    spec.warmupInsts = kWarmup;
    spec.measureInsts = kMeasure;
    return spec;
}

/** name -> stats hash, in deterministic order. */
using CaseMap = std::map<std::string, std::string>;

/**
 * The full case matrix. Kept in one function so the regen path and
 * the compare path can never drift apart.
 */
CaseMap
buildCases()
{
    CaseMap out;

    // ---- every shipped config, materialized path ----
    struct NamedCfg
    {
        const char *name;
        SimConfig cfg;
    };
    const NamedCfg shipped[] = {
        {"pc1", SimConfig::defaults()},
        {"pc2", SimConfig::pc2()},
        {"pc3", SimConfig::pc3()},
        {"wc1", SimConfig::wc1()},
        {"wc2", SimConfig::wc2()},
        {"wc3", SimConfig::wc3()},
        {"pc1_sp0", SimConfig::defaults().withPrefetch(StorePrefetch::None)},
        {"pc1_sp2",
         SimConfig::defaults().withPrefetch(StorePrefetch::AtExecute)},
        {"pc1_hws2", SimConfig::defaults().withScout(ScoutMode::Hws2)},
        {"wc1_hws1", SimConfig::wc1().withScout(ScoutMode::Hws1)},
    };
    for (const NamedCfg &nc : shipped) {
        RunSpec spec = baseSpec(nc.cfg);
        out[std::string("run/") + nc.name] = hashRunOutput(test::runMaterialized(spec));
    }

    // ---- transactional memory ----
    {
        RunSpec spec = baseSpec(SimConfig::defaults());
        spec.config.tm.enabled = true;
        out["run/tm"] = hashRunOutput(test::runMaterialized(spec));
    }

    // ---- machine variants: SMAC, peer traffic, sibling core ----
    {
        RunSpec spec = baseSpec(SimConfig::defaults());
        spec.numChips = 2;
        spec.peerTraffic = true;
        spec.smac = SmacConfig{};
        out["run/smac_peer"] = hashRunOutput(test::runMaterialized(spec));
    }
    {
        RunSpec spec = baseSpec(SimConfig::defaults());
        spec.numChips = 2;
        spec.peerTraffic = true;
        spec.siblingCore = true;
        spec.smac = SmacConfig{};
        out["run/smac_sibling"] = hashRunOutput(test::runMaterialized(spec));
    }

    // ---- streaming (generator / WC-rewrite sources), chunk sizes ----
    for (const char *model : {"pc", "wc"}) {
        SimConfig cfg = model[0] == 'p' ? SimConfig::defaults()
                                        : SimConfig::wc2();
        for (uint64_t chunk : {uint64_t{1}, uint64_t{7777}, uint64_t{0}}) {
            RunSpec spec = baseSpec(cfg);
            auto src = test::openRun(spec, chunk);
            std::string name = std::string("stream/") + model + "_chunk" +
                std::to_string(chunk);
            out[name] = hashRunOutput(Runner::run(spec, *src));
        }
    }

    // ---- N-core runner: coherence, SMAC, per-core streams ----
    {
        MultiRunSpec spec;
        spec.profile = WorkloadProfile::database();
        spec.config = SimConfig::defaults();
        spec.warmupInsts = kWarmup;
        spec.measureInsts = kMeasure;
        spec.cores = 4;
        spec.chips = 2;
        spec.smac = SmacConfig{};
        spec.smac->entries = 8192;
        spec.protocol = CoherenceProtocol::Moesi;
        spec.chunkInsts = 4096; // many chunks per core stream
        out["multi/smac_moesi_4c2c"] =
            hashMultiRunOutput(MultiCoreRunner::run(spec));

        // WC rewrite plus SLE: every core builds its lock analysis
        // from the chunks its own cursor reads.
        spec.config = SimConfig::wc2();
        spec.config.sle = true;
        spec.smac.reset();
        spec.protocol = CoherenceProtocol::Mesi;
        out["multi/wc2_sle_4c2c"] =
            hashMultiRunOutput(MultiCoreRunner::run(spec));
    }

    // ---- the paper's two-core chip: two engines, one shared L2 ----
    {
        SimConfig wc2_sle = SimConfig::wc2();
        wc2_sle.sle = true;
        struct DualCase
        {
            const char *name;
            WorkloadProfile profile;
            SimConfig config;
            uint64_t quantum;
        };
        const DualCase duals[] = {
            {"database_pc1", WorkloadProfile::database(),
             SimConfig::defaults(), 256},
            {"specjbb_wc1", WorkloadProfile::specjbb(), SimConfig::wc1(),
             192},
            {"database_wc2_sle", WorkloadProfile::database(), wc2_sle, 256},
            {"tpcw_sp2", WorkloadProfile::tpcw(),
             SimConfig::defaults().withPrefetch(StorePrefetch::AtExecute),
             192},
        };
        for (const DualCase &d : duals) {
            MultiRunSpec spec;
            spec.profile = d.profile;
            spec.config = d.config;
            spec.warmupInsts = kWarmup;
            spec.measureInsts = kMeasure;
            spec.quantum = d.quantum;
            spec.cores = 2;
            spec.chips = 1;
            out[std::string("multi/") + d.name + "_2c1c"] =
                hashMultiRunOutput(MultiCoreRunner::run(spec));
        }
    }

    // ---- raw generator streams: every profile, multi-core ids ----
    for (const WorkloadProfile &prof : WorkloadProfile::allCommercial()) {
        for (uint32_t id : {0u, 101u, 102u, 103u}) {
            SyntheticTraceGenerator gen(prof, 42 + id, id);
            out["gen/" + prof.name + "_id" + std::to_string(id)] =
                hashTrace(gen.generate(kWarmup));
        }
    }

    // ---- on-disk v4 files at three chunkings, direct simulator runs ----
    {
        SyntheticTraceGenerator gen(WorkloadProfile::database(), 7);
        Trace trace = gen.generate(kWarmup + kMeasure);
        LockAnalysis locks = test::analyzeTrace(trace);
        std::string base =
            ::testing::TempDir() + "hotloop_equiv_" +
            std::to_string(static_cast<unsigned>(::getpid()));
        std::string v4 = base + "_v4.trc";
        std::string v4c = base + "_v4c.trc";
        std::string v4one = base + "_v4one.trc";
        writeTraceFileV4(v4, trace, "hotloop");
        writeTraceFileV4(v4c, trace, "hotloop", 7777);
        writeTraceFileV4(v4one, trace, "hotloop", 1);

        const SimConfig cfgs[] = {SimConfig::defaults(), SimConfig::pc3()};
        for (const SimConfig &cfg : cfgs) {
            // Materialized reference.
            {
                ChipNode chip(HierarchyConfig{}, 0);
                MlpSimulator sim(cfg, chip, &locks);
                MaterializedSource src(trace);
                out[std::string("file/") + cfg.name + "_mat"] =
                    hashSimResult(sim.run(src, kWarmup));
            }
            struct FileCase
            {
                const char *tag;
                const std::string *path;
            };
            // The v1_* keys keep their recorded names; they now read
            // v4 files at the chunkings the v1 cases read.
            const FileCase fcs[] = {
                {"v1_default", &v4},   {"v1_chunk7777", &v4c},
                {"v1_chunk1", &v4one}, {"v4_file", &v4},
                {"v4_chunk7777", &v4c},
            };
            for (const FileCase &fc : fcs) {
                StreamingFileSource src(*fc.path);
                ChipNode chip(HierarchyConfig{}, 0);
                MlpSimulator sim(cfg, chip, &locks);
                out[std::string("file/") + cfg.name + "_" + fc.tag] =
                    hashSimResult(sim.run(src, kWarmup));
            }
        }
        std::remove(v4.c_str());
        std::remove(v4c.c_str());
        std::remove(v4one.c_str());
    }

    return out;
}

std::string
goldenPath()
{
#ifdef STOREMLP_HOTLOOP_GOLDEN
    return STOREMLP_HOTLOOP_GOLDEN;
#else
    return "hotloop.golden";
#endif
}

CaseMap
readGolden(const std::string &path)
{
    CaseMap out;
    std::ifstream in(path);
    std::string name, hash;
    while (in >> name >> hash)
        out[name] = hash;
    return out;
}

TEST(HotloopEquivalence, BitIdenticalAgainstGolden)
{
    CaseMap cases = buildCases();
    ASSERT_GE(cases.size(), 30u);

    if (std::getenv("STOREMLP_HOTLOOP_REGEN")) {
        std::ofstream outf(goldenPath());
        ASSERT_TRUE(outf.good()) << "cannot write " << goldenPath();
        for (const auto &[name, hash] : cases)
            outf << name << " " << hash << "\n";
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    CaseMap golden = readGolden(goldenPath());
    ASSERT_FALSE(golden.empty())
        << "golden file missing/empty: " << goldenPath()
        << " (regen with STOREMLP_HOTLOOP_REGEN=1)";
    EXPECT_EQ(golden.size(), cases.size());
    for (const auto &[name, hash] : cases) {
        auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << "no golden entry for " << name;
        EXPECT_EQ(it->second, hash)
            << name << ": SimResult diverged from pre-optimization golden";
    }
}

/**
 * Parallel sweep determinism through the restructured hot loop: the
 * same batch at jobs=1 and jobs=4 (every sweep run streams) must be
 * bit-identical to the materialized whole-trace run of each spec.
 */
TEST(HotloopEquivalence, SweepJobsAndStreamingAgree)
{
    std::vector<PlannedRun> runs;
    for (const SimConfig &cfg :
         {SimConfig::defaults(), SimConfig::wc1(),
          SimConfig::defaults().withScout(ScoutMode::Hws2)}) {
        PlannedRun run;
        run.spec = baseSpec(cfg);
        run.spec.warmupInsts = 10000;
        run.spec.measureInsts = 20000;
        runs.push_back(run);
    }

    for (unsigned jobs : {1u, 4u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        std::vector<RunOutcome> got = SweepEngine(opts).execute(runs);
        ASSERT_EQ(got.size(), runs.size());
        for (size_t i = 0; i < runs.size(); ++i) {
            ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
            EXPECT_EQ(hashRunOutput(got[i].output),
                      hashRunOutput(test::runMaterialized(runs[i].spec)))
                << "spec " << i << " jobs=" << jobs;
        }
    }
}

} // namespace
