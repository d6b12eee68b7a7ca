/**
 * @file
 * Experiment runner implementation.
 */

#include "core/runner.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "coherence/bus.hh"
#include "coherence/chip.hh"
#include "coherence/traffic.hh"
#include "core/epoch_log.hh"
#include "core/mlp_sim.hh"
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

SourceSpec
SourceSpec::forRun(const RunSpec &spec, uint64_t chunk_insts)
{
    SourceSpec s;
    s.profile = spec.profile;
    s.seed = spec.seed;
    s.count = spec.warmupInsts + spec.measureInsts;
    // The paper simulates weak consistency by rewriting the PC trace's
    // lock idioms (Section 4.2); any Power-dialect model gets the
    // same rewrite.
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
    if (onParallelWorker())
        return src;
    return std::make_unique<ReadAheadSource>(std::move(src));
}

/**
 * One run's machine and read position: everything Runner::run builds
 * before the first record and reads after the last.
 */
struct Runner::Session::Machine
{
    Machine(const RunSpec &run_spec, TraceSource &source,
            const LockAnalysis *locks);

    RunSpec spec;
    SnoopBus bus;
    std::vector<std::unique_ptr<ChipNode>> chips;
    std::vector<std::unique_ptr<PeerTrafficAgent>> peers;
    std::optional<EpochLogWriter> epochLog;
    MlpSimulator sim;
    // The tally counts measured stores as the engine's cursor fetches
    // each chunk, so the stream is read once.
    StoreTallySource tally;
    TraceCursor cur;
    bool measuring = false;
    uint64_t warmupEnd = 0;

    ChipNode &local() { return *chips.front(); }

  private:
    /** The chips, wired to the bus; built before the simulator. */
    static std::vector<std::unique_ptr<ChipNode>>
    buildChips(const RunSpec &spec, SnoopBus &bus);
    static SimConfig simConfig(const RunSpec &spec);
};

std::vector<std::unique_ptr<ChipNode>>
Runner::Session::Machine::buildChips(const RunSpec &spec, SnoopBus &bus)
{
    // A geometry the caches cannot index is the run's ConfigError, not
    // a constructor assert.
    HierarchyConfig hier_cfg = spec.hierarchy.value_or(HierarchyConfig{});
    checkGeometry(hier_cfg.l1i);
    checkGeometry(hier_cfg.l1d);
    checkGeometry(hier_cfg.l2);
    if (spec.smac)
        checkGeometry(*spec.smac);

    std::vector<std::unique_ptr<ChipNode>> chips;
    for (uint32_t c = 0; c < spec.numChips; ++c) {
        chips.push_back(std::make_unique<ChipNode>(
            hier_cfg, c, spec.smac, spec.protocol));
        if (spec.numChips > 1)
            chips.back()->connect(&bus);
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
    return chips;
}

SimConfig
Runner::Session::Machine::simConfig(const RunSpec &spec)
{
    SimConfig cfg = spec.config;
    cfg.cpiOnChip = spec.profile.cpiOnChip;
    return cfg;
}

Runner::Session::Machine::Machine(const RunSpec &run_spec,
                                  TraceSource &source,
                                  const LockAnalysis *locks)
    : spec(run_spec), chips(buildChips(spec, bus)),
      sim(simConfig(spec), local(), locks),
      tally(source, spec.warmupInsts), cur(tally)
{
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
            spec.profile, spec.seed + 77, local(),
            static_cast<int>(spec.numChips) + 1));
    }
    if (spec.epochLog) {
        epochLog.emplace(*spec.epochLog);
        sim.setEpochListener(
            [this](const EpochRecord &rec) { epochLog->write(rec); });
    }
    if (!peers.empty()) {
        sim.setPeerHook([this](uint64_t delta) {
            for (auto &p : peers)
                p->step(delta);
        });
    }
}

Runner::Session::Session(const RunSpec &spec, TraceSource &source,
                         const LockAnalysis *locks)
    : _m(std::make_unique<Machine>(spec, source, locks))
{
}

Runner::Session::~Session() = default;

bool
Runner::Session::advance(uint64_t end)
{
    Machine &m = *_m;
    MlpSimulator &sim = m.sim;
    if (!m.measuring) {
        uint64_t stop = std::min(end, m.spec.warmupInsts);
        sim.process(m.cur, sim.position(), stop, false);
        if (sim.position() == stop && stop < m.spec.warmupInsts)
            return true; // paused inside the warmup
        // ---- warm, reset, measure ----
        m.warmupEnd = sim.position(); // min(warmup, stream length)
        m.local().resetStats();
        m.bus.resetStats();
        m.measuring = true;
    }
    // Called at least once after the warmup, even past `end`: the
    // first measured process() resolves the warmup's open generation.
    sim.process(m.cur, sim.position(), std::max(end, sim.position()),
                true);
    return sim.position() >= end;
}

RunOutput
Runner::Session::finish()
{
    advance(~uint64_t{0});
    Machine &m = *_m;
    ChipNode &local = m.local();
    uint64_t end_idx = m.sim.position(); // the stream length
    if (m.tally.tallied() != end_idx) {
        throw std::logic_error(
            "Runner: store tally covers " +
            std::to_string(m.tally.tallied()) +
            " records, run ended at " + std::to_string(end_idx));
    }
    RunOutput out;
    out.sim = m.sim.takeResult();

    // ---- Table 1 style rates over the measured records ----
    uint64_t measured = end_idx - m.warmupEnd;
    if (measured) {
        double n = static_cast<double>(measured);
        out.storesPer100 =
            100.0 * static_cast<double>(m.tally.stores()) / n;
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
    for (auto &p : m.peers)
        out.peerInstructions += p->instructionsRetired();

    local.hierarchy().exportStats(out.machine);
    if (m.spec.numChips > 1)
        m.bus.exportStats(out.machine);
    if (const Smac *smac = local.smac())
        smac->exportStats(out.machine);
    return out;
}

bool
Runner::needsLockAnalysis(const SimConfig &config)
{
    // Lock analysis feeds SLE/TM only; the simulator never reads it
    // otherwise, so skip the extra pass (and its one-byte-per-record
    // roles vector) unless those optimizations are on.
    return config.sle || config.tm.enabled;
}

RunOutput
Runner::run(const RunSpec &spec, TraceSource &source)
{
    std::optional<LockAnalysis> locks;
    if (needsLockAnalysis(spec.config))
        locks = LockDetector().analyze(source);
    Session session(spec, source, locks ? &*locks : nullptr);
    return session.finish();
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
