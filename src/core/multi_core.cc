/**
 * @file
 * Multi-core contention runner implementation.
 */

#include "core/multi_core.hh"

#include <memory>
#include <string>

#include "coherence/bus.hh"
#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "core/runner.hh"
#include "trace/lock_detector.hh"
#include "util/error.hh"
#include "util/field_table.hh"

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
    if (spec.quantum == 0)
        throw ConfigError("MultiCoreRunner: quantum must be >= 1");

    uint32_t n = spec.cores;
    uint32_t m = spec.chips;

    // ---- the machine: M chips, bus-connected when M > 1 ----
    // Built first, so a bad geometry throws before any stream opens.
    SnoopBus bus;
    std::vector<std::unique_ptr<ChipNode>> chips = buildChips(
        m, spec.hierarchy, spec.smac, spec.protocol, spec.prefillL2, bus);

    // Contention knobs override the profile the generators see; the
    // knobs shape the traces, never the machine. They are fractions,
    // checked as the profile keys they replace are.
    WorkloadProfile prof = spec.profile;
    auto knob = [](const std::optional<double> &v, const char *key,
                   double &out) {
        if (!v)
            return;
        checkBound(FieldBound::Fraction, *v, key, encodeField(*v));
        out = *v;
    };
    knob(spec.sharedStoreFrac, "sharedStoreFrac", prof.sharedStoreFrac);
    knob(spec.lockProb, "lockProb", prof.lockProb);

    // ---- per-core streams ----
    // Generator ids 0, 101, 102, ... place each core's private regions
    // at disjoint addresses, while every core shares the one global
    // shared-store region: the source of cross-core invalidation
    // traffic.
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

    SimConfig cfg = spec.config;
    cfg.cpiOnChip = prof.cpiOnChip;

    // SLE/TM cores build their lock analysis from the chunks their own
    // cursor reads, as Runner::run does, and step only as far as it
    // covers.
    std::vector<std::unique_ptr<LockFeedSource>> feeds(n);
    if (Runner::needsLockAnalysis(cfg)) {
        for (uint32_t c = 0; c < n; ++c) {
            feeds[c] = std::make_unique<LockFeedSource>(
                *sources[c], MlpSimulator::lockReadLead(cfg));
        }
    }

    std::vector<std::unique_ptr<MlpSimulator>> sims;
    std::vector<std::unique_ptr<TraceCursor>> cursors;
    sims.reserve(n);
    cursors.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
        sims.push_back(std::make_unique<MlpSimulator>(
            cfg, *chips[c % m],
            feeds[c] ? &feeds[c]->analysis() : nullptr));
        cursors.push_back(std::make_unique<TraceCursor>(
            feeds[c] ? *feeds[c] : *sources[c]));
    }

    // Simulate core c's records before `end`, in steps its lock
    // analysis covers.
    auto process = [&](uint32_t c, uint64_t end, bool collect) {
        MlpSimulator &sim = *sims[c];
        if (feeds[c]) {
            for (uint64_t stop;
                 (stop = feeds[c]->coveredStop(sim.position(), end)) <
                 end;) {
                sim.process(*cursors[c], sim.position(), stop, collect);
                if (sim.position() < stop)
                    return; // end of stream
            }
        }
        sim.process(*cursors[c], sim.position(), end, collect);
    };

    // ---- deterministic quantum-interleaved execution ----
    // Every core advances `quantum` records per turn, in core-id
    // order. A turn straddling the warmup boundary is split at the
    // exact boundary so collection starts at record warmupInsts. A
    // core whose stream ends (generator slot-boundary overshoot makes
    // per-core stream lengths differ slightly) simply drops out.
    uint64_t q = spec.quantum;
    uint64_t warm = spec.warmupInsts;
    auto turn = [&](uint32_t c, bool &done, uint64_t begin,
                    uint64_t end) {
        if (done)
            return;
        if (begin < warm && end > warm) {
            process(c, warm, false);
            if (sims[c]->position() < warm) {
                done = true;
                return;
            }
            process(c, end, true);
        } else {
            process(c, end, begin >= warm);
        }
        done = sims[c]->position() < end; // stopped early: end of stream
    };

    std::vector<char> done(n, 0);
    uint32_t running = n;
    uint64_t pos = 0;
    while (running) {
        uint64_t next = pos + q;
        for (uint32_t c = 0; c < n; ++c) {
            bool d = done[c];
            turn(c, d, pos, next);
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
