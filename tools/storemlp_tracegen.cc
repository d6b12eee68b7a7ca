/**
 * @file
 * storemlp_tracegen: generate a synthetic workload trace and write it
 * in the storemlp binary trace format, the chunk-indexed compressed v4
 * container. The trace streams chunk by
 * chunk from the generator (and WC rewrite) into the file, so memory
 * stays O(chunk) at any --count. The generation report goes to
 * stdout (text, JSON document, or CSV).
 *
 *   storemlp_tracegen --workload tpcw --count 5000000 \
 *                     --seed 7 --out tpcw.trc [--wc]
 */

#include <iostream>

#include "cli_util.hh"
#include "core/runner.hh"
#include "stats/stats_json.hh"
#include "trace/trace_format.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

using namespace storemlp;
using namespace storemlp::tools;

namespace
{

int
toolMain(int argc, char **argv)
{
    Cli cli(argc, argv, {
        kWorkloadFlag,
        {"count", "N", "instructions to generate (default 1M)"},
        kSeedFlag,
        {"chip", "N", "chip id for region placement (default 0)"},
        {"wc", "", "emit the weak-consistency rendition"},
        {"compress", "[=v4]",
         "chunk-indexed compressed v4 container (the default;\n"
         "kept for old command lines)"},
        {"chunk-insts", "N",
         "v4 records per chunk, 1.." +
             std::to_string(trace_format::kMaxChunkInstsV4) +
             "\n(default 65536)"},
        {"out", "PATH", "output trace file (required)"},
        kFormatFlag,
    });
    if (!cli.has("out"))
        cli.fail("--out is required");
    if (cli.has("compress")) {
        std::string v = cli.str("compress", "");
        if (!v.empty() && v != "v4")
            cli.fail("bad --compress value '" + v + "' (only v4)");
    }
    uint64_t chunk_insts = chunkInstsArg(cli, 65536);

    SourceSpec spec;
    spec.profile = workloadByName(cli, cli.str("workload", "database"));
    spec.seed = cli.num("seed", 42);
    spec.count = cli.num("count", 1000 * 1000);
    spec.generatorId = static_cast<uint32_t>(cli.num("chip", 0));
    spec.wcRewrite = cli.flag("wc");
    std::string out = cli.str("out", "");

    Trace::Mix mix;
    try {
        // Generator -> WC rewrite -> read-ahead, as storemlp_sim
        // streams it; the file carries the same provenance string, so
        // a file round-trip is cache-compatible with the synthesized
        // stream.
        std::unique_ptr<TraceSource> src = openRunSource(spec);
        TraceFileWriter writer(out, src->fingerprint(), chunk_insts);
        // Each chunk is dropped before the next fetch: holding two
        // would stall the read-ahead helper.
        for (uint64_t k = 0;; ++k) {
            std::shared_ptr<const TraceChunk> chunk = src->fetch(k);
            if (!chunk)
                break;
            mix.add(chunk->data, chunk->count);
            writer.append(chunk->data, chunk->count);
        }
        writer.commit();
    } catch (const TraceFormatError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    OutFormat fmt = outFormat(cli);
    if (fmt != OutFormat::Text) {
        StatsMeta meta = {
            {"tool", "storemlp_tracegen"},
            {"workload", spec.profile.name},
            {"model", spec.wcRewrite ? "wc" : "pc"},
            {"file", out},
        };
        StatsRegistry reg;
        reg.counter("trace.records", mix.total);
        reg.counter("trace.loads", mix.loads);
        reg.counter("trace.stores", mix.stores);
        reg.counter("trace.branches", mix.branches);
        reg.counter("trace.atomics", mix.atomics);
        reg.counter("trace.barriers", mix.barriers);
        if (fmt == OutFormat::Json)
            writeStatsJson(std::cout, reg, meta, /*pretty=*/true);
        else
            writeStatsCsv(std::cout, reg, meta);
        return 0;
    }

    std::cout << "wrote " << mix.total << " records ("
              << spec.profile.name
              << (spec.wcRewrite ? ", WC" : ", PC/TSO") << ")\n"
              << "  loads " << mix.loads << ", stores " << mix.stores
              << ", branches " << mix.branches << ", atomics "
              << mix.atomics << ", barriers " << mix.barriers << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
