/**
 * @file
 * The lock analysis an SLE/TM run builds from its own chunks: the
 * detector core against an independent whole-trace reference, lock
 * roles never landing on the classes the engine's quiet fast path
 * takes, fused runs against runs given a whole-source analysis, and
 * reads past the covered prefix failing loudly. The fetch pattern of a
 * fused run (each chunk once, never backward) is checked with the
 * other sources' in test_trace_source.cc (RunnerReadsEachChunkOnce).
 */

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "consistency/sle.hh"
#include "consistency/transactional.hh"
#include "core/runner.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/rng.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "sim_test_util.hh"

namespace storemlp
{
namespace
{

/**
 * The detector's rules applied to a whole trace in one loop, written
 * apart from StreamingLockDetector: a casa, or an lwarx followed by a
 * stwcx to its address, opens; the next plain store to the address
 * within `window` records closes the pair.
 */
LockAnalysis
referenceAnalysis(const Trace &t, uint64_t window)
{
    LockAnalysis a;
    a.roles.assign(t.size(), LockRole::None);
    std::unordered_map<uint64_t, uint64_t> open;
    for (uint64_t j = 0; j < t.size(); ++j) {
        const TraceRecord &r = t[j];
        if (r.cls == InstClass::AtomicCas ||
            (r.cls == InstClass::LoadLocked && j + 1 < t.size() &&
             t[j + 1].cls == InstClass::StoreCond &&
             t[j + 1].addr == r.addr)) {
            open[r.addr] = j;
            continue;
        }
        if (r.cls != InstClass::Store)
            continue;
        auto it = open.find(r.addr);
        if (it == open.end())
            continue;
        uint64_t acq = it->second;
        open.erase(it);
        if (j - acq > window)
            continue;
        a.pairs.push_back({acq, j, r.addr});
        a.roles[acq] = LockRole::Acquire;
        a.roles[j] = LockRole::Release;
        if (t[acq].cls == InstClass::LoadLocked) {
            a.roles[acq + 1] = LockRole::AcquireAux;
            if (t[acq + 2].cls == InstClass::Isync)
                a.roles[acq + 2] = LockRole::AcquireAux;
        }
        if (j > 0 && t[j - 1].cls == InstClass::Lwsync)
            a.roles[j - 1] = LockRole::ReleaseAux;
    }
    return a;
}

/** A dense random mix of every lock-idiom class over four addresses. */
Trace
lockSoup(uint64_t n, uint64_t seed)
{
    Pcg32 rng(seed);
    TraceBuilder b;
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t addr = 0x100 + 0x40 * rng.below(4);
        switch (rng.below(9)) {
          case 0: b.casa(addr); break;
          case 1: b.loadLocked(addr); break;
          case 2: b.storeCond(addr); break;
          case 3: b.isync(); break;
          case 4: b.lwsync(); break;
          case 5: case 6: b.store(addr); break;
          case 7: b.load(addr); break;
          default: b.alu(); break;
        }
    }
    return b.build();
}

void
expectSameAnalysis(const LockAnalysis &got, const LockAnalysis &want,
                   const std::string &what)
{
    ASSERT_EQ(got.roles.size(), want.roles.size()) << what;
    for (size_t i = 0; i < want.roles.size(); ++i)
        ASSERT_EQ(got.roles[i], want.roles[i]) << what << " role " << i;
    ASSERT_EQ(got.pairs.size(), want.pairs.size()) << what;
    for (size_t i = 0; i < want.pairs.size(); ++i) {
        EXPECT_EQ(got.pairs[i].acquireIdx, want.pairs[i].acquireIdx);
        EXPECT_EQ(got.pairs[i].releaseIdx, want.pairs[i].releaseIdx);
        EXPECT_EQ(got.pairs[i].lockAddr, want.pairs[i].lockAddr);
    }
}

TEST(LockDetectorCore, MatchesWholeTraceReference)
{
    // Windows from 0 up past the soup's lock distances, chunk sizes
    // that split idioms anywhere: expiry, ring wrap and the lwarx
    // look-ahead across a chunk boundary all get exercised.
    for (uint64_t seed : {1, 2, 3}) {
        Trace t = lockSoup(6000, seed);
        for (uint64_t window : {0, 1, 2, 5, 64, 512}) {
            LockAnalysis want = referenceAnalysis(t, window);
            EXPECT_EQ(want.pairs.empty(), window == 0); // acq < release
            for (uint64_t chunk : {1, 7, 4096}) {
                MaterializedSource src(t, chunk);
                expectSameAnalysis(LockDetector(window).analyze(src), want,
                                   "seed " + std::to_string(seed) +
                                       " window " + std::to_string(window) +
                                       " chunk " + std::to_string(chunk));
            }
        }
    }
}

/** A record of the three classes the engine's quiet fast path takes. */
bool
fastPathClass(InstClass c)
{
    return c == InstClass::Alu || c == InstClass::Branch ||
        c == InstClass::Load;
}

/** Every lock role of `src`'s analysis, checked against its record. */
void
expectRolesOffFastPath(TraceSource &src, const std::string &what)
{
    LockAnalysis a = LockDetector().analyze(src);
    EXPECT_FALSE(a.pairs.empty()) << what;
    Trace t = materializeSource(src);
    ASSERT_EQ(a.roles.size(), t.size()) << what;
    for (uint64_t i = 0; i < t.size(); ++i) {
        if (a.roles[i] != LockRole::None) {
            ASSERT_FALSE(fastPathClass(t[i].cls))
                << what << ": record " << i << " is "
                << instClassName(t[i].cls);
        }
    }
}

TEST(LockRoles, NeverLandOnAluBranchOrLoad)
{
    // MlpSimulator takes its quiet fast path for Alu, Branch and Load
    // records under SLE/TM too; that is exact only while no such
    // record gets a lock role.
    for (const WorkloadProfile &p :
         {WorkloadProfile::database(), WorkloadProfile::tpcw(),
          WorkloadProfile::specjbb(), WorkloadProfile::specweb()}) {
        for (bool wc : {false, true}) {
            std::string what = p.name + (wc ? " wc" : " pc");
            auto gen = [&]() -> std::unique_ptr<TraceSource> {
                auto g = std::make_unique<GeneratorSource>(p, 7, 60000, 0,
                                                           4096);
                if (!wc)
                    return g;
                return std::make_unique<WcRewriteSource>(std::move(g));
            };
            std::unique_ptr<TraceSource> src = gen();
            expectRolesOffFastPath(*src, what + " generated");

            test::TempTraceFile file(what);
            writeTraceFileV4(file.path, materializeSource(*gen()), what,
                             4096);
            StreamingFileSource from_file(file.path);
            expectRolesOffFastPath(from_file, what + " v4 file");
        }
    }
}

/** Runner::Session given a whole-source analysis: the reference. */
RunOutput
runWithWholeAnalysis(const RunSpec &spec, uint64_t chunk)
{
    std::unique_ptr<TraceSource> pass = test::openRun(spec, chunk);
    LockAnalysis whole = LockDetector().analyze(*pass);
    std::unique_ptr<TraceSource> src = test::openRun(spec, chunk);
    return Runner::Session(spec, *src, &whole).finish();
}

TEST(FusedLockRun, MatchesWholeSourceAnalysis)
{
    // Runner::run builds the analysis from its own chunks. The last
    // config's scout budget (missLatency / cpiOnChip) reaches past a
    // 4 Ki chunk, so its engine reads roles chunks ahead of dispatch.
    SimConfig far = SimConfig::pc2().withScout(ScoutMode::Hws2);
    far.missLatency = 5000;
    std::vector<std::pair<std::string, SimConfig>> configs = {
        {"pc3", SimConfig::pc3()},
        {"wc3", SimConfig::wc3()},
        {"pc2-hws2", SimConfig::pc2().withScout(ScoutMode::Hws2)},
        {"wc2", SimConfig::wc2()},
        {"pc2-hws2-lat5000", far},
    };
    for (auto &[name, cfg] : configs) {
        for (bool tm : {false, true}) {
            RunSpec spec;
            spec.profile = WorkloadProfile::specjbb();
            spec.config = cfg;
            spec.config.sle = !tm;
            spec.config.tm.enabled = tm;
            spec.warmupInsts = 20000;
            spec.measureInsts = 60000;
            for (uint64_t chunk : {1024, 4096, 65536}) {
                std::string what = name + (tm ? " tm" : " sle") +
                    " chunk " + std::to_string(chunk);
                RunOutput want = runWithWholeAnalysis(spec, chunk);
                std::unique_ptr<TraceSource> src =
                    test::openRun(spec, chunk);
                test::expectSameRun(Runner::run(spec, *src), want, what);
                EXPECT_GT(tm ? want.sim.tmAborts : want.sim.elidedLocks,
                          0u)
                    << what;
            }
        }
    }
}

TEST(LockAnalysisCoverage, ReadsPastTheFinalPrefixThrow)
{
    // A builder that has seen one chunk covers only the records a
    // window and the pair look-ahead short of its end; SLE and TM
    // answer inside that prefix and throw past it, instead of reading
    // roles that may still change.
    Trace t = lockSoup(4000, 9);
    MaterializedSource src(t, 2000);
    LockAnalysisBuilder builder(64);
    builder.push(*src.fetch(0));
    const LockAnalysis &a = builder.analysis();
    ASSERT_FALSE(a.complete);
    uint64_t first_uncovered = 0;
    while (a.covers(first_uncovered + 1))
        ++first_uncovered;
    ASSERT_GT(first_uncovered, 0u);
    ASSERT_LT(first_uncovered, 2000u);

    Sle sle(&a, true);
    TmConfig tmc;
    tmc.enabled = true;
    TransactionalMemory tm(&a, tmc);
    uint64_t ok = first_uncovered - 1;
    EXPECT_NO_THROW(sle.classify(ok));
    EXPECT_NO_THROW(sle.peekElided(ok));
    EXPECT_NO_THROW(tm.classify(ok));
    EXPECT_NO_THROW(tm.abortsAt(ok));
    for (uint64_t idx : {first_uncovered, uint64_t{3999}}) {
        EXPECT_THROW(sle.classify(idx), std::logic_error) << idx;
        EXPECT_THROW(sle.peekElided(idx), std::logic_error) << idx;
        EXPECT_THROW(tm.classify(idx), std::logic_error) << idx;
        EXPECT_THROW(tm.abortsAt(idx), std::logic_error) << idx;
    }

    // Once finished, every index answers, past the end included.
    builder.push(*src.fetch(1));
    builder.finish();
    EXPECT_NO_THROW(sle.classify(3999));
    EXPECT_NO_THROW(tm.abortsAt(3999));
    EXPECT_EQ(sle.classify(4000), Sle::Action::Normal);
    EXPECT_FALSE(tm.abortsAt(4000));
}

} // namespace
} // namespace storemlp
