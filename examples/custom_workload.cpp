/**
 * @file
 * API tour: build a custom workload profile, generate a trace,
 * persist it to disk, stream it back, and run it through the epoch
 * engine directly (without the Runner convenience layer) — the
 * integration path for users bringing their own trace sources.
 */

#include <cstdio>
#include <iostream>

#include "coherence/chip.hh"
#include "core/mlp_sim.hh"
#include "trace/generator.hh"
#include "trace/lock_detector.hh"
#include "trace/trace_file_source.hh"

using namespace storemlp;

int
main()
{
    // 1. A custom workload: a lock-free streaming writer with heavy
    //    store misses and few loads (e.g. a log-structured storage
    //    engine's append path).
    WorkloadProfile profile;
    profile.name = "log-writer";
    profile.loadFrac = 0.15;
    profile.storeFrac = 0.20;
    profile.branchFrac = 0.10;
    profile.storeColdProb = 0.10;
    profile.coldStoresPerLine = 4;
    profile.storeSpatialRun = 8; // sequential appends
    profile.storeRevisitFrac = 0.0;
    profile.loadColdProb = 0.002;
    profile.lockProb = 0.0;      // lock-free
    profile.cpiOnChip = 0.9;

    // 2. Generate and persist the trace.
    SyntheticTraceGenerator gen(profile, 7);
    Trace trace = gen.generate(400000);
    std::string path = "/tmp/storemlp_custom_trace.bin";
    writeTraceFileV4(path, trace, profile.cacheKey());
    StreamingFileSource loaded(path);
    std::cout << "trace round trip: " << *loaded.knownSize()
              << " records\n";

    // 3. Detect its critical sections (one pass over the file).
    LockAnalysis locks = LockDetector().analyze(loaded);
    std::cout << "critical sections detected: " << locks.pairs.size()
              << " (lock-free by construction)\n\n";

    // 4. Assemble the machine by hand (one chip, no bus) and compare
    //    store handling options on the append path.
    for (StorePrefetch sp : {StorePrefetch::None,
                             StorePrefetch::AtRetire,
                             StorePrefetch::AtExecute}) {
        // Fresh chip per config so cache state does not leak.
        ChipNode fresh(HierarchyConfig{}, 0);
        SimConfig cfg;
        cfg.storePrefetch = sp;
        cfg.cpiOnChip = profile.cpiOnChip;
        MlpSimulator sim(cfg, fresh, &locks);
        SimResult res = sim.run(loaded, 100000);
        std::cout << storePrefetchName(sp) << ": "
                  << res.epochsPer1000() << " epochs/1000, store MLP "
                  << res.storeMlp() << ", overlapped stores "
                  << res.overlappedStoreFraction() << "\n";
    }

    std::cout << "\nAn append-mostly path with sequential store misses "
                 "overlaps well once prefetching is on: exactly the "
                 "behaviour the epoch model predicts.\n";
    std::remove(path.c_str());
    return 0;
}
