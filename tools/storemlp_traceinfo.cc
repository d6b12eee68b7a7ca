/**
 * @file
 * storemlp_traceinfo: inspect a binary trace file. The default report
 * comes from the container header alone — record count, file bytes,
 * format version, profile fingerprint — without decoding a single
 * record, so it is O(1) for a multi-gigabyte trace. `--full` streams
 * the records (O(chunk) resident) to add the instruction mix and the
 * detected critical sections; `--dump N` prints the first N records.
 *
 *   storemlp_traceinfo --in trace.trc [--full] [--dump 20]
 */

#include <iomanip>
#include <iostream>

#include "cli_util.hh"
#include "stats/stats_json.hh"
#include "trace/lock_detector.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"

using namespace storemlp;
using namespace storemlp::tools;

namespace
{

/** Bytes the same records would occupy in the retired fixed-width v1
 *  container: the size reference of the compression ratio. */
uint64_t
v1EquivalentBytes(uint64_t records)
{
    return records * 22 + 16;
}

int
toolMain(int argc, char **argv)
{
    Cli cli(argc, argv, {
        {"in", "PATH", "trace file (required)"},
        {"full", "",
         "decode the records (streamed): instruction mix and\n"
         "critical-section analysis"},
        {"dump", "N", "print the first N records (text only)"},
        kChunkInstsFlag,
        kFormatFlag, kOutFlag,
    });
    if (!cli.has("in"))
        cli.fail("--in is required");
    std::string path = cli.str("in", "");
    uint64_t dump = cli.num("dump", 0);
    bool full = cli.flag("full");

    TraceFileInfo info;
    try {
        info = probeTraceFile(path);
    } catch (const TraceFormatError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    // Mix and lock analysis decode the stream, so they are opt-in;
    // the header probe above is the whole cost of the default report.
    Trace::Mix mix;
    LockAnalysis locks;
    uint64_t total_len = 0;
    std::optional<StreamingFileSource> src;
    if (full || dump) {
        try {
            src.emplace(path, chunkInstsArg(cli));
        } catch (const TraceFormatError &e) {
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
    }
    if (full) {
        // One walk over the chunks feeds both the mix and the lock
        // analysis.
        LockAnalysisBuilder builder(kLockWindow, info.records);
        for (uint64_t k = 0;; ++k) {
            std::shared_ptr<const TraceChunk> c = src->fetch(k);
            if (!c)
                break;
            mix.add(c->data, c->count);
            builder.push(*c);
        }
        builder.finish();
        locks = builder.take();
        for (const auto &p : locks.pairs)
            total_len += p.releaseIdx - p.acquireIdx;
    }

    OutFormat fmt = outFormat(cli);
    OutputSink sink(cli);
    std::ostream &os = sink.stream();

    if (fmt != OutFormat::Text) {
        StatsMeta meta = {
            {"tool", "storemlp_traceinfo"},
            {"file", path},
            {"fingerprint", info.fingerprint},
        };
        StatsRegistry reg;
        reg.counter("trace.records", info.records);
        reg.counter("trace.fileBytes", info.fileBytes);
        reg.counter("trace.version", info.version);
        reg.counter("trace.bodyFormat", info.bodyFormat);
        reg.counter("trace.chunks", info.chunks);
        reg.counter("trace.chunkInsts", info.chunkInsts);
        if (info.records) {
            reg.scalar("trace.compressionRatio",
                       static_cast<double>(info.fileBytes) /
                           static_cast<double>(
                               v1EquivalentBytes(info.records)));
        }
        if (full) {
            reg.counter("trace.loads", mix.loads);
            reg.counter("trace.stores", mix.stores);
            reg.counter("trace.branches", mix.branches);
            reg.counter("trace.atomics", mix.atomics);
            reg.counter("trace.barriers", mix.barriers);
            reg.counter("trace.criticalSections", locks.pairs.size());
            reg.scalar("trace.meanCriticalSectionLen",
                       locks.pairs.empty()
                           ? 0.0
                           : static_cast<double>(total_len) /
                                 static_cast<double>(
                                     locks.pairs.size()));
        }
        if (fmt == OutFormat::Json)
            writeStatsJson(os, reg, meta, /*pretty=*/true);
        else
            writeStatsCsv(os, reg, meta);
        return 0;
    }

    os << "records:  " << info.records << "\n"
       << "bytes:    " << info.fileBytes << "\n"
       << "format:   v" << info.version << " (chunked body)\n"
       << "chunks:   " << info.chunks << " x " << info.chunkInsts
       << " records\n";
    if (info.records) {
        // From the header alone: how this container compares to the
        // same records in fixed-width v1.
        os << "compression: " << std::fixed << std::setprecision(3)
           << static_cast<double>(info.fileBytes) /
                static_cast<double>(v1EquivalentBytes(info.records))
           << "x of v1 equivalent ("
           << v1EquivalentBytes(info.records) << " bytes)\n"
           << std::defaultfloat << std::setprecision(6);
    }
    if (!info.fingerprint.empty())
        os << "fingerprint: " << info.fingerprint << "\n";

    if (full) {
        double n =
            std::max<double>(1.0, static_cast<double>(mix.total));
        os << std::fixed << std::setprecision(2)
           << "loads:    " << mix.loads << " ("
           << 100.0 * mix.loads / n << "%)\n"
           << "stores:   " << mix.stores << " ("
           << 100.0 * mix.stores / n << "%)\n"
           << "branches: " << mix.branches << " ("
           << 100.0 * mix.branches / n << "%)\n"
           << "atomics:  " << mix.atomics << "\n"
           << "barriers: " << mix.barriers << "\n";

        os << "critical sections: " << locks.pairs.size() << "\n";
        if (!locks.pairs.empty()) {
            os << "mean critical-section length: "
               << static_cast<double>(total_len) /
                      static_cast<double>(locks.pairs.size())
               << " instructions\n";
        }
    }

    if (dump) {
        TraceCursor cur(*src);
        for (uint64_t i = 0; i < dump; ++i) {
            const TraceRecord *rp = cur.tryAt(i);
            if (!rp)
                break;
            const TraceRecord &r = *rp;
            os << std::setw(6) << i << "  0x" << std::hex << r.pc
               << std::dec << "  " << std::setw(6)
               << instClassName(r.cls);
            if (isMemClass(r.cls))
                os << "  addr=0x" << std::hex << r.addr << std::dec;
            if (r.cls == InstClass::Branch)
                os << (r.taken() ? "  taken" : "  not-taken");
            if (r.lockAcquire())
                os << "  [acquire]";
            if (r.lockRelease())
                os << "  [release]";
            os << "\n";
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
