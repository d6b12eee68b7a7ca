/**
 * @file
 * Experiment runner implementation.
 */

#include "core/runner.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coherence/bus.hh"
#include "coherence/chip.hh"
#include "coherence/traffic.hh"
#include "core/epoch_log.hh"
#include "core/mlp_sim.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/rewriter.hh"
#include "trace/trace_file_source.hh"
#include "util/parallel.hh"

namespace storemlp
{

namespace
{

/**
 * Pass-through source that tallies Table-1 store-class records at
 * index >= `from` while the engine's cursor fetches each chunk, so a
 * run reads its stream once. A refetched chunk is not counted again;
 * a chunk starting past the tallied prefix would leave records
 * uncounted, so it throws instead.
 */
class StoreTallySource : public TraceSource
{
  public:
    StoreTallySource(TraceSource &inner, uint64_t from)
        : TraceSource(inner.chunkInsts()), _inner(inner), _from(from)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        std::shared_ptr<const TraceChunk> c = _inner.fetch(chunk_idx);
        if (!c)
            return c;
        if (c->firstIdx > _tallied) {
            throw std::logic_error(
                "Runner: chunk " + std::to_string(chunk_idx) +
                " fetched before records [" + std::to_string(_tallied) +
                ", " + std::to_string(c->firstIdx) +
                ") were tallied");
        }
        uint64_t end = c->firstIdx + c->count;
        if (end > _tallied) {
            const uint8_t *cls = c->lanes().cls;
            for (uint64_t i = std::max(_tallied, _from); i < end; ++i) {
                _stores += isStoreClass(
                    static_cast<InstClass>(cls[i - c->firstIdx]));
            }
            _tallied = end;
        }
        return c;
    }

    std::optional<uint64_t> knownSize() const override
    {
        return _inner.knownSize();
    }
    std::string fingerprint() const override
    {
        return _inner.fingerprint();
    }

    /** Store-class records in [from, tallied()). */
    uint64_t stores() const { return _stores; }
    /** End of the contiguous prefix fetched so far. */
    uint64_t tallied() const { return _tallied; }

  private:
    TraceSource &_inner;
    uint64_t _from;
    uint64_t _tallied = 0;
    uint64_t _stores = 0;
};

/**
 * Cache-only Table-1 replay of the records `visit` feeds to its
 * callback, in order: warm the default hierarchy on the first
 * `warmup_insts`, reset its stats, then measure the rest.
 */
template <typename Visit>
Runner::MissRates
replayMissRates(uint64_t warmup_insts, Visit &&visit)
{
    CacheHierarchy hier;
    uint64_t seen = 0;
    uint64_t stores = 0;
    visit([&](const TraceRecord &r) {
        if (seen == warmup_insts)
            hier.resetStats();
        bool measuring = seen++ >= warmup_insts;
        hier.instFetch(r.pc);
        if (isLoadClass(r.cls))
            hier.load(r.addr);
        if (isStoreClass(r.cls)) {
            hier.store(r.addr);
            stores += measuring;
        }
    });

    Runner::MissRates rates;
    if (seen <= warmup_insts)
        return rates;
    double n = static_cast<double>(seen - warmup_insts);
    rates.storesPer100 = 100.0 * static_cast<double>(stores) / n;
    rates.storeMissPer100 =
        100.0 * static_cast<double>(hier.storeL2Misses()) / n;
    rates.loadMissPer100 =
        100.0 * static_cast<double>(hier.loadL2Misses()) / n;
    rates.instMissPer100 =
        100.0 * static_cast<double>(hier.instL2Misses()) / n;
    return rates;
}

} // namespace

double
RunOutput::smacInvalidatesPer1000() const
{
    return sim.instructions
        ? 1000.0 * static_cast<double>(smacCoherenceInvalidates) /
              static_cast<double>(sim.instructions)
        : 0.0;
}

double
RunOutput::smacHitInvalidPct() const
{
    uint64_t denom = chipStoreMisses ? chipStoreMisses : sim.missStores;
    return denom
        ? 100.0 * static_cast<double>(smacProbeHitInvalidated) /
              static_cast<double>(denom)
        : 0.0;
}

Trace
Runner::buildTrace(const RunSpec &spec)
{
    SyntheticTraceGenerator gen(spec.profile, spec.seed, 0);
    Trace trace = gen.generate(spec.warmupInsts + spec.measureInsts);

    // The paper simulates weak consistency by rewriting the PC trace's
    // lock idioms (Section 4.2); any Power-dialect model gets the
    // same rewrite.
    if (spec.config.memoryModel.wcTraceRewrite()) {
        TraceRewriter rewriter;
        trace = rewriter.toWeakConsistency(trace);
    }
    return trace;
}

std::string
Runner::traceCacheKey(const RunSpec &spec)
{
    std::ostringstream os;
    os << spec.profile.cacheKey() << "|seed=" << spec.seed
       << "|n=" << (spec.warmupInsts + spec.measureInsts) << "|wc="
       << spec.config.memoryModel.wcTraceRewrite() << "|chip=0";
    return os.str();
}

SourceSpec
SourceSpec::forRun(const RunSpec &spec, uint64_t chunk_insts)
{
    SourceSpec s;
    s.profile = spec.profile;
    s.seed = spec.seed;
    s.count = spec.warmupInsts + spec.measureInsts;
    s.wcRewrite = spec.config.memoryModel.wcTraceRewrite();
    s.chunkInsts = chunk_insts;
    return s;
}

std::unique_ptr<TraceSource>
openRunSource(const SourceSpec &spec)
{
    std::unique_ptr<TraceSource> src;
    if (!spec.tracePath.empty()) {
        src = std::make_unique<StreamingFileSource>(spec.tracePath,
                                                    spec.chunkInsts);
    } else {
        src = std::make_unique<GeneratorSource>(
            spec.profile, spec.seed, spec.count, spec.generatorId,
            spec.chunkInsts);
        if (spec.wcRewrite)
            src = std::make_unique<WcRewriteSource>(std::move(src));
    }
    if (spec.cache) {
        std::string key = src->fingerprint() +
            "|chunk=" + std::to_string(src->chunkInsts());
        return std::make_unique<CachedSource>(std::move(src), *spec.cache,
                                              std::move(key));
    }
    if (onParallelWorker())
        return src;
    return std::make_unique<ReadAheadSource>(std::move(src));
}

RunOutput
Runner::run(const RunSpec &spec, TraceSource &source)
{
    // Lock analysis feeds SLE/TM only; the simulator never reads it
    // otherwise, so skip the extra pass (and its one-byte-per-record
    // roles vector) unless those optimizations are on.
    std::optional<LockAnalysis> locks;
    if (spec.config.sle || spec.config.tm.enabled)
        locks = analyzeSource(source);

    // ---- build the machine ----
    HierarchyConfig hier_cfg = spec.hierarchy.value_or(HierarchyConfig{});
    SnoopBus bus;
    std::vector<std::unique_ptr<ChipNode>> chips;
    for (uint32_t c = 0; c < spec.numChips; ++c) {
        chips.push_back(std::make_unique<ChipNode>(
            hier_cfg, c, spec.smac, spec.protocol));
        if (spec.numChips > 1)
            chips.back()->connect(&bus);
    }
    ChipNode &local = *chips.front();

    std::vector<std::unique_ptr<PeerTrafficAgent>> peers;
    if (spec.peerTraffic) {
        for (uint32_t c = 1; c < spec.numChips; ++c) {
            peers.push_back(std::make_unique<PeerTrafficAgent>(
                spec.profile, spec.seed + 1000 + c, *chips[c]));
        }
    }
    if (spec.siblingCore) {
        // The second core of the measured chip (paper Section 4.3:
        // "two single-threaded cores sharing an L2 cache").
        peers.push_back(std::make_unique<PeerTrafficAgent>(
            spec.profile, spec.seed + 77, local,
            static_cast<int>(spec.numChips) + 1));
    }

    if (spec.prefillL2) {
        // Fill each L2 with clean placeholder lines from a reserved
        // region so real traffic immediately contends for capacity.
        constexpr uint64_t kPrefillBase = 0xF00000000000ULL;
        constexpr uint64_t kPrefillStride = 0x001000000000ULL;
        for (uint32_t c = 0; c < spec.numChips; ++c) {
            SetAssocCache &l2 = chips[c]->hierarchy().l2();
            uint64_t lines =
                l2.config().sizeBytes / l2.config().lineBytes;
            uint64_t base = kPrefillBase + c * kPrefillStride;
            for (uint64_t i = 0; i < lines; ++i)
                l2.access(base + i * l2.config().lineBytes, false);
        }
    }

    SimConfig cfg = spec.config;
    cfg.cpiOnChip = spec.profile.cpiOnChip;

    MlpSimulator sim(cfg, local, locks ? &*locks : nullptr);
    std::optional<EpochLogWriter> epoch_log;
    if (spec.epochLog) {
        epoch_log.emplace(*spec.epochLog);
        sim.setEpochListener([&epoch_log](const EpochRecord &rec) {
            epoch_log->write(rec);
        });
    }
    if (!peers.empty()) {
        sim.setPeerHook([&peers](uint64_t delta) {
            for (auto &p : peers)
                p->step(delta);
        });
    }

    // ---- warm, reset, measure ----
    // The tally counts measured stores as the engine's cursor fetches
    // each chunk, so the stream is read once.
    StoreTallySource tally(source, spec.warmupInsts);
    TraceCursor cur(tally);
    sim.process(cur, 0, spec.warmupInsts, false);
    uint64_t warmup_end = sim.position(); // min(warmup, stream length)
    local.resetStats();
    bus.resetStats();

    sim.process(cur, warmup_end, ~uint64_t{0}, true);
    uint64_t end_idx = sim.position(); // the stream length
    if (tally.tallied() != end_idx) {
        throw std::logic_error(
            "Runner: store tally covers " +
            std::to_string(tally.tallied()) + " records, run ended at " +
            std::to_string(end_idx));
    }
    RunOutput out;
    out.sim = sim.takeResult();

    // ---- Table 1 style rates over the measured records ----
    uint64_t measured = end_idx - warmup_end;
    if (measured) {
        double n = static_cast<double>(measured);
        out.storesPer100 =
            100.0 * static_cast<double>(tally.stores()) / n;
        out.storeMissPer100 = 100.0 *
            static_cast<double>(local.hierarchy().storeL2Misses()) / n;
        out.loadMissPer100 = 100.0 *
            static_cast<double>(local.hierarchy().loadL2Misses()) / n;
        out.instMissPer100 = 100.0 *
            static_cast<double>(local.hierarchy().instL2Misses()) / n;
    }
    out.l2Accesses = local.hierarchy().l2Accesses();
    if (measured) {
        out.tlbMissPer100 = 100.0 *
            static_cast<double>(local.tlb().misses()) /
            static_cast<double>(measured);
    }

    out.chipStoreMisses = local.hierarchy().storeL2Misses();
    if (const Smac *smac = local.smac()) {
        out.smacCoherenceInvalidates = smac->coherenceInvalidates();
        out.smacProbeHits = smac->probeHits();
        out.smacProbeHitInvalidated = smac->probeHitInvalidated();
    }
    for (auto &p : peers)
        out.peerInstructions += p->instructionsRetired();

    local.hierarchy().exportStats(out.machine);
    if (spec.numChips > 1)
        bus.exportStats(out.machine);
    if (const Smac *smac = local.smac())
        smac->exportStats(out.machine);
    return out;
}

void
RunOutput::exportStats(StatsRegistry &reg) const
{
    sim.exportStats(reg);

    reg.scalar("run.storesPer100", storesPer100);
    reg.scalar("run.storeMissPer100", storeMissPer100);
    reg.scalar("run.loadMissPer100", loadMissPer100);
    reg.scalar("run.instMissPer100", instMissPer100);
    reg.scalar("run.tlbMissPer100", tlbMissPer100);
    reg.counter("run.l2Accesses", l2Accesses);
    reg.counter("run.peerInstructions", peerInstructions);
    reg.counter("chip.storeMisses", chipStoreMisses);
    reg.counter("chip.smacCoherenceInvalidates", smacCoherenceInvalidates);
    reg.counter("chip.smacProbeHits", smacProbeHits);
    reg.counter("chip.smacProbeHitInvalidated", smacProbeHitInvalidated);
    reg.scalar("derived.smacInvalidatesPer1000", smacInvalidatesPer1000());
    reg.scalar("derived.smacHitInvalidPct", smacHitInvalidPct());

    reg.mergeFrom(machine);
}

Runner::MissRates
Runner::measureMissRates(const WorkloadProfile &profile, uint64_t seed,
                         uint64_t warmup_insts, uint64_t measure_insts)
{
    GeneratorSource src(profile, seed, warmup_insts + measure_insts);
    return replayMissRates(warmup_insts, [&](auto &&access) {
        forEachRecord(src, 0, ~uint64_t{0}, access);
    });
}

Runner::MissRates
Runner::measureMissRates(const Trace &trace, uint64_t warmup_insts)
{
    return replayMissRates(warmup_insts, [&](auto &&access) {
        for (const TraceRecord &r : trace.records())
            access(r);
    });
}

} // namespace storemlp
