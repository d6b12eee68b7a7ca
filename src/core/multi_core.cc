/**
 * @file
 * Multi-core contention runner implementation.
 */

#include "core/multi_core.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "coherence/bus.hh"
#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "core/runner.hh"
#include "trace/lock_detector.hh"
#include "util/error.hh"

namespace storemlp
{

double
MultiRunOutput::combinedEpochsPer1000() const
{
    if (!combined.instructions)
        return 0.0;
    return 1000.0 * static_cast<double>(combined.epochs) /
        static_cast<double>(combined.instructions);
}

double
MultiRunOutput::meanOffChipCpi(uint32_t miss_latency) const
{
    if (cores.empty())
        return 0.0;
    double sum = 0.0;
    for (const SimResult &r : cores)
        sum += r.offChipCpi(miss_latency);
    return sum / static_cast<double>(cores.size());
}

double
MultiRunOutput::busInvalidationsPer1000() const
{
    if (!combined.instructions)
        return 0.0;
    return 1000.0 * static_cast<double>(busInvalidations) /
        static_cast<double>(combined.instructions);
}

void
MultiRunOutput::exportStats(StatsRegistry &reg) const
{
    combined.exportStats(reg);
    reg.counter("multicore.cores", cores.size());
    reg.counter("multicore.chips", chips);
    reg.counter("multicore.busInvalidations", busInvalidations);
    reg.counter("multicore.busDirtyTransfers", busDirtyTransfers);
    reg.scalar("derived.busInvalidationsPer1000",
               busInvalidationsPer1000());
    reg.scalar("derived.combinedEpochsPer1000", combinedEpochsPer1000());
    for (size_t i = 0; i < cores.size(); ++i) {
        StatsRegistry per;
        cores[i].exportStats(per);
        reg.mergeFrom(per, "cpu" + std::to_string(i) + ".");
    }
    reg.mergeFrom(machine);
}

namespace
{

// Runner::run's L2 prefill layout: clean placeholder lines from a
// reserved per-chip region, so real traffic immediately contends for
// capacity.
constexpr uint64_t kPrefillBase = 0xF00000000000ULL;
constexpr uint64_t kPrefillStride = 0x001000000000ULL;

} // namespace

MultiRunOutput
MultiCoreRunner::run(const MultiRunSpec &spec)
{
    if (spec.cores == 0)
        throw ConfigError("MultiCoreRunner: cores must be >= 1");
    if (spec.chips == 0)
        throw ConfigError("MultiCoreRunner: chips must be >= 1");
    if (spec.chips > spec.cores) {
        throw ConfigError(
            "MultiCoreRunner: chips (" + std::to_string(spec.chips) +
            ") exceeds cores (" + std::to_string(spec.cores) + ")");
    }

    uint32_t n = spec.cores;
    uint32_t m = spec.chips;

    // Contention knobs override the profile the generators see; the
    // knobs shape the traces, never the machine.
    WorkloadProfile prof = spec.profile;
    if (spec.sharedStoreFrac)
        prof.sharedStoreFrac = *spec.sharedStoreFrac;
    if (spec.lockProb)
        prof.lockProb = *spec.lockProb;

    // ---- per-core streams ----
    // Generator ids 0, 101, 102, ... place each core's private regions
    // at disjoint addresses (DualCoreRunner uses 0/101), while every
    // core shares the one global shared-store region: the source of
    // cross-core invalidation traffic.
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.reserve(n);
    SourceSpec src;
    src.profile = prof;
    src.count = spec.warmupInsts + spec.measureInsts;
    src.wcRewrite = spec.config.memoryModel.wcTraceRewrite();
    src.chunkInsts = spec.chunkInsts;
    for (uint32_t c = 0; c < n; ++c) {
        src.seed = spec.seed + c;
        src.generatorId = c == 0 ? 0 : 100 + c;
        sources.push_back(openRunSource(src));
    }

    // Lock analysis feeds SLE/TM only; skip the extra streaming pass
    // unless those optimizations are on (Runner::run semantics).
    std::vector<LockAnalysis> locks;
    if (spec.config.sle || spec.config.tm.enabled) {
        locks.reserve(n);
        for (uint32_t c = 0; c < n; ++c)
            locks.push_back(analyzeSource(*sources[c]));
    }

    // ---- the machine: M chips, bus-connected when M > 1 ----
    HierarchyConfig hier_cfg = spec.hierarchy.value_or(HierarchyConfig{});
    SnoopBus bus;
    std::vector<std::unique_ptr<ChipNode>> chips;
    chips.reserve(m);
    for (uint32_t c = 0; c < m; ++c) {
        chips.push_back(std::make_unique<ChipNode>(
            hier_cfg, c, spec.smac, spec.protocol));
        if (m > 1)
            chips.back()->connect(&bus);
    }

    if (spec.prefillL2) {
        for (uint32_t c = 0; c < m; ++c) {
            SetAssocCache &l2 = chips[c]->hierarchy().l2();
            uint64_t lines =
                l2.config().sizeBytes / l2.config().lineBytes;
            uint64_t base = kPrefillBase + c * kPrefillStride;
            for (uint64_t i = 0; i < lines; ++i)
                l2.access(base + i * l2.config().lineBytes, false);
        }
    }

    SimConfig cfg = spec.config;
    cfg.cpiOnChip = prof.cpiOnChip;

    std::vector<std::unique_ptr<MlpSimulator>> sims;
    std::vector<std::unique_ptr<TraceCursor>> cursors;
    sims.reserve(n);
    cursors.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
        sims.push_back(std::make_unique<MlpSimulator>(
            cfg, *chips[c % m], locks.empty() ? nullptr : &locks[c]));
        cursors.push_back(std::make_unique<TraceCursor>(*sources[c]));
    }

    // ---- deterministic quantum-interleaved execution ----
    // Every core advances `quantum` records per turn, in core-id
    // order. A turn straddling the warmup boundary is split at the
    // exact boundary so collection starts at record warmupInsts. A
    // core whose stream ends (generator slot-boundary overshoot makes
    // per-core stream lengths differ slightly) simply drops out.
    uint64_t q = std::max<uint64_t>(1, spec.quantum);
    uint64_t warm = spec.warmupInsts;
    auto turn = [&](MlpSimulator &sim, TraceCursor &cur, bool &done,
                    uint64_t begin, uint64_t end) {
        if (done)
            return;
        if (begin < warm && end > warm) {
            sim.process(cur, begin, warm, false);
            if (sim.position() < warm) {
                done = true;
                return;
            }
            sim.process(cur, warm, end, true);
        } else {
            sim.process(cur, begin, end, begin >= warm);
        }
        done = sim.position() < end; // stopped early: end of stream
    };

    std::vector<char> done(n, 0);
    uint32_t running = n;
    uint64_t pos = 0;
    while (running) {
        uint64_t next = pos + q;
        for (uint32_t c = 0; c < n; ++c) {
            bool d = done[c];
            turn(*sims[c], *cursors[c], d, pos, next);
            if (d && !done[c]) {
                done[c] = 1;
                --running;
            }
        }
        pos = next;
    }

    // ---- results ----
    MultiRunOutput out;
    out.chips = m;
    out.cores.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
        out.cores.push_back(sims[c]->takeResult());
        out.combined.merge(out.cores.back());
    }
    if (m > 1) {
        out.busInvalidations = bus.readExclusives() + bus.upgrades();
        out.busDirtyTransfers = bus.dirtyTransfers();
        bus.exportStats(out.machine);
        out.machine.counter("coherence.dirtyTransfers",
                            bus.dirtyTransfers());
    }
    for (uint32_t c = 0; c < m; ++c) {
        StatsRegistry per;
        chips[c]->hierarchy().exportStats(per);
        if (const Smac *smac = chips[c]->smac())
            smac->exportStats(per);
        per.counter("chip.smacAcceleratedStores",
                    chips[c]->smacAcceleratedStores());
        out.machine.mergeFrom(per, "chip" + std::to_string(c) + ".");
    }
    return out;
}

} // namespace storemlp
