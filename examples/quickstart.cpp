/**
 * @file
 * Quickstart: simulate the paper's default processor on one workload
 * and print every headline metric. Start here.
 *
 * Usage: quickstart [workload] [instructions]
 *   workload: database | tpcw | specjbb | specweb (default database)
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/runner.hh"

using namespace storemlp;

namespace
{

WorkloadProfile
profileByName(const std::string &name)
{
    if (name == "database")
        return WorkloadProfile::database();
    if (name == "tpcw")
        return WorkloadProfile::tpcw();
    if (name == "specjbb")
        return WorkloadProfile::specjbb();
    if (name == "specweb")
        return WorkloadProfile::specweb();
    std::cerr << "unknown workload '" << name
              << "' (expected database|tpcw|specjbb|specweb)\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "database";
    uint64_t insts = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                              : 1000000;

    RunSpec spec;
    spec.profile = profileByName(name);
    spec.config = SimConfig::defaults();
    spec.warmupInsts = insts / 5;
    spec.measureInsts = insts;

    std::cout << "workload: " << spec.profile.name << "\n"
              << "config:   paper default (PC, Sp1, SB16/SQ32, 8B "
                 "coalescing)\n\n";

    // Generate the trace chunk by chunk (PC->WC rewrite included when
    // the model asks for it) while the epoch engine simulates it.
    auto src = openRunSource(SourceSpec::forRun(spec));
    RunOutput out = Runner::run(spec, *src);
    out.sim.print(std::cout);

    std::cout << "\nmiss rates per 100 instructions (cf. Table 1):\n"
              << "  stores      " << out.storesPer100 << "\n"
              << "  store miss  " << out.storeMissPer100 << "\n"
              << "  load miss   " << out.loadMissPer100 << "\n"
              << "  inst miss   " << out.instMissPer100 << "\n"
              << "\noff-chip CPI at 500-cycle latency: "
              << out.sim.offChipCpi(500) << "\n";
    return 0;
}
