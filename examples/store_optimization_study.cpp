/**
 * @file
 * Domain example: an architect evaluating which store-handling
 * optimization to adopt for an OLTP-class design. Sweeps every
 * optimization the paper studies on the Database workload and ranks
 * them by off-chip CPI reduction and L2 bandwidth cost.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "stats/table.hh"

using namespace storemlp;

namespace
{
RunOutput
runOnce(const RunSpec &spec)
{
    return Runner::run(spec, *openRunSource(SourceSpec::forRun(spec)));
}
} // namespace

namespace
{

struct Variant
{
    std::string name;
    SimConfig config;
    std::optional<SmacConfig> smac;
};

} // namespace

int
main(int argc, char **argv)
{
    uint64_t insts = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                              : 800000;
    WorkloadProfile profile = WorkloadProfile::database();

    std::vector<Variant> variants;
    {
        SimConfig c = SimConfig::defaults();
        c.storePrefetch = StorePrefetch::None;
        variants.push_back({"baseline (Sp0)", c, std::nullopt});

        variants.push_back({"prefetch at retire (Sp1)",
                            c.withPrefetch(StorePrefetch::AtRetire),
                            std::nullopt});
        variants.push_back({"prefetch at execute (Sp2)",
                            c.withPrefetch(StorePrefetch::AtExecute),
                            std::nullopt});

        SimConfig big_sq = c;
        big_sq.storeQueueSize = 256;
        variants.push_back({"store queue x8 (Sq256)", big_sq,
                            std::nullopt});

        SimConfig sle = c;
        sle.sle = true;
        sle.prefetchPastSerializing = true;
        variants.push_back({"SLE + prefetch past serializing", sle,
                            std::nullopt});

        variants.push_back({"hardware scout (HWS2)",
                            c.withScout(ScoutMode::Hws2),
                            std::nullopt});

        SimConfig kitchen = SimConfig::defaults(); // Sp1 default
        kitchen.sle = true;
        kitchen.prefetchPastSerializing = true;
        kitchen.scout = ScoutMode::Hws2;
        variants.push_back({"Sp1 + SLE + HWS2", kitchen, std::nullopt});

        SimConfig perfect = c;
        perfect.perfectStores = true;
        variants.push_back({"perfect stores (bound)", perfect,
                            std::nullopt});
    }

    struct Row
    {
        std::string name;
        double epi1000;
        double offChipCpi;
        double l2PerInst;
    };
    std::vector<Row> rows;

    std::cout << "Evaluating " << variants.size()
              << " store-handling variants on the " << profile.name
              << " workload (" << insts << " measured instructions)\n\n";

    for (const auto &v : variants) {
        RunSpec spec;
        spec.profile = profile;
        spec.config = v.config;
        spec.smac = v.smac;
        spec.warmupInsts = insts / 2;
        spec.measureInsts = insts;
        RunOutput out = runOnce(spec);
        rows.push_back({v.name, out.sim.epochsPer1000(),
                        out.sim.offChipCpi(500),
                        static_cast<double>(out.l2Accesses) /
                            static_cast<double>(out.sim.instructions)});
    }

    double base = rows.front().offChipCpi;
    std::sort(rows.begin() + 1, rows.end() - 1,
              [](const Row &a, const Row &b) {
                  return a.offChipCpi < b.offChipCpi;
              });

    TextTable table("Store optimization ranking — Database, "
                    "500-cycle memory");
    table.header({"variant", "epochs/1000", "off-chip CPI",
                  "vs baseline", "L2 accesses/inst"});
    for (const auto &r : rows) {
        table.beginRow();
        table.cell(r.name);
        table.cell(r.epi1000, 3);
        table.cell(r.offChipCpi, 3);
        table.cell(formatFixed(100.0 * (base - r.offChipCpi) / base, 1) +
                   "%");
        table.cell(r.l2PerInst, 3);
    }
    table.print(std::cout);

    std::cout << "For the Store Miss Accelerator trade-off (EPI vs\n"
                 "core-to-L2 bandwidth) see examples/smac_sizing,\n"
                 "which runs the multi-chip configuration it needs.\n";
    return 0;
}
