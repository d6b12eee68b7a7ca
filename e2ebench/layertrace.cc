/**
 * @file
 * storemlp_layertrace: the traced half of the end-to-end benchmark.
 *
 * It drives one benchmark workload in-process through the same public
 * calls the command-line tools make, and puts a span around each call
 * into a layer: trace sources are wrapped so every chunk fetch is
 * timed, and the runner, multi-core runner, sweep engine, stats
 * export, codec and network client are timed around their entry
 * points. Spans (name, start, end, parent, run id), counters and the
 * stats document of every simulated run are kept in memory and
 * written as one JSON object at the end. run.py turns them into the
 * per-layer metrics; nothing here feeds an end-to-end number.
 *
 *   storemlp_layertrace --workload sim_stream_pc --seed 3 --reps 2 \
 *       --warmup 2000000 --measure 6000000 --out spans.json
 */

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config_io.hh"
#include "core/multi_core.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/sweep_request.hh"
#include "net/socket.hh"
#include "net/sweep_client.hh"
#include "net/sweep_server.hh"
#include "stats/stats_json.hh"
#include "trace/generator.hh"
#include "trace/rewriter.hh"
#include "trace/trace_file_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

using namespace storemlp;

namespace
{

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Spans and counters, kept in memory until the end of the process
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int run = -1;
};

class Tracer
{
  public:
    int
    open(const std::string &name, int parent)
    {
        double now = seconds();
        std::lock_guard<std::mutex> lk(_mu);
        _spans.push_back({name, now, now, parent, _run});
        return static_cast<int>(_spans.size()) - 1;
    }

    void
    close(int id)
    {
        double now = seconds();
        std::lock_guard<std::mutex> lk(_mu);
        _spans[id].end = now;
    }

    void
    count(const std::string &name, double value)
    {
        std::lock_guard<std::mutex> lk(_mu);
        _counts[{_run, name}] += value;
    }

    void
    doc(const std::string &name, std::string json)
    {
        std::lock_guard<std::mutex> lk(_mu);
        _docs.push_back({_run, name, std::move(json)});
    }

    void setRun(int run) { _run = run; }

    void write(std::ostream &os) const;

  private:
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - _t0).count();
    }

    struct Doc
    {
        int run;
        std::string name;
        std::string json;
    };

    Clock::time_point _t0 = Clock::now();
    std::mutex _mu;
    std::vector<Span> _spans;
    std::map<std::pair<int, std::string>, double> _counts;
    std::vector<Doc> _docs;
    std::atomic<int> _run{-1};
};

Tracer g_tracer;
thread_local std::vector<int> t_open; ///< this thread's open spans

/** RAII span; the parent is this thread's innermost open span unless
 *  given explicitly (callbacks running on engine worker threads). */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string &name, int parent = -2)
    {
        if (parent == -2)
            parent = t_open.empty() ? -1 : t_open.back();
        id = g_tracer.open(name, parent);
        t_open.push_back(id);
    }
    ~ScopedSpan()
    {
        g_tracer.close(id);
        t_open.pop_back();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id;
};

void
Tracer::write(std::ostream &os) const
{
    os << "{\"spans\":[";
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"start\":" << jsonDouble(s.start)
           << ",\"end\":" << jsonDouble(s.end)
           << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}";
    }
    os << "],\"counts\":[";
    bool first = true;
    for (const auto &[key, value] : _counts) {
        os << (first ? "" : ",") << "{\"run\":" << key.first
           << ",\"name\":\"" << jsonEscape(key.second)
           << "\",\"value\":" << jsonDouble(value) << "}";
        first = false;
    }
    os << "],\"docs\":[";
    for (size_t i = 0; i < _docs.size(); ++i) {
        os << (i ? "," : "") << "{\"run\":" << _docs[i].run
           << ",\"name\":\"" << jsonEscape(_docs[i].name)
           << "\",\"json\":\"" << jsonEscape(_docs[i].json) << "\"}";
    }
    os << "]}\n";
}

/**
 * Times every chunk fetch of an inner source under `span` and counts
 * the records it hands out. With `lanes`, it also derives each
 * chunk's SoA lanes under a `trace.lanes` span, for the first
 * (monotone) pass only: that is the pass the epoch engine walks
 * through lane views, while Runner::run's later Table-1 tally re-reads
 * records without lanes. Lanes are derived once per chunk, so the
 * engine's own lanes() call then finds them ready.
 */
class TimedSource : public TraceSource
{
  public:
    TimedSource(std::unique_ptr<TraceSource> inner, std::string span,
                bool lanes)
        : TraceSource(inner->chunkInsts()), _inner(std::move(inner)),
          _span(std::move(span)), _lanes(lanes)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        if (chunk_idx < _lastIdx)
            _firstPass = false;
        _lastIdx = chunk_idx;
        std::shared_ptr<const TraceChunk> chunk;
        {
            ScopedSpan s(_span);
            chunk = _inner->fetch(chunk_idx);
        }
        if (!chunk)
            return chunk;
        g_tracer.count(_span + ".records",
                       static_cast<double>(chunk->count));
        if (_lanes && _firstPass) {
            ScopedSpan s("trace.lanes");
            (void)chunk->lanes();
        }
        return chunk;
    }

    std::optional<uint64_t> knownSize() const override
    {
        return _inner->knownSize();
    }
    std::string fingerprint() const override
    {
        return _inner->fingerprint();
    }

  private:
    std::unique_ptr<TraceSource> _inner;
    std::string _span;
    bool _lanes;
    bool _firstPass = true;
    uint64_t _lastIdx = 0;
};

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i + 1 < argc; i += 2) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw std::invalid_argument("bad argument " + key);
            _kv[key.substr(2)] = argv[i + 1];
        }
        if (argc % 2 == 0)
            throw std::invalid_argument("flags come in --key value pairs");
    }

    std::string
    str(const std::string &key) const
    {
        auto it = _kv.find(key);
        if (it == _kv.end())
            throw std::invalid_argument("missing --" + key);
        return it->second;
    }
    uint64_t num(const std::string &key) const
    {
        return std::stoull(str(key));
    }

  private:
    std::map<std::string, std::string> _kv;
};

std::string
exportJson(const RunOutput &out)
{
    ScopedSpan s("stats.export");
    StatsRegistry reg;
    out.exportStats(reg);
    return statsToJson(reg, StatsMeta{}, /*pretty=*/true);
}

// ---------------------------------------------------------------------
// Workloads: each mirrors the tool invocation run.py times
// ---------------------------------------------------------------------

/** storemlp_sim --stream --workload database --model pc. */
void
simStreamPc(const Args &a)
{
    RunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.config.memoryModel = ModelDescriptor::parse("pc");
    spec.seed = a.num("seed");
    spec.warmupInsts = a.num("warmup");
    spec.measureInsts = a.num("measure");

    for (uint64_t rep = 0; rep < a.num("reps"); ++rep) {
        g_tracer.setRun(static_cast<int>(rep));
        ScopedSpan op("op");
        TimedSource src(std::make_unique<GeneratorSource>(
                            spec.profile, spec.seed,
                            spec.warmupInsts + spec.measureInsts, 0, 0),
                        "trace.generate", /*lanes=*/true);
        RunOutput out;
        {
            ScopedSpan s("core.engine");
            out = Runner::run(spec, src);
        }
        g_tracer.doc("sim", exportJson(out));
    }

    // Cache-only replay (Table 1 path) over a materialized prefix of
    // the same stream: the cache/TLB layer without the engine.
    g_tracer.setRun(static_cast<int>(a.num("reps")));
    ScopedSpan aux("aux");
    uint64_t warm = a.num("replay-warmup");
    Trace trace;
    {
        ScopedSpan s("aux.generate");
        SyntheticTraceGenerator gen(spec.profile, spec.seed, 0);
        trace = gen.generate(warm + a.num("replay-measure"));
    }
    Runner::MissRates rates;
    {
        ScopedSpan s("cache.replay");
        rates = Runner::measureMissRates(trace, warm);
    }
    g_tracer.count("cache.replay.records",
                   static_cast<double>(trace.size()));
    g_tracer.count("cache.replay.l2_miss_per_kinst",
                   10.0 * (rates.storeMissPer100 + rates.loadMissPer100 +
                           rates.instMissPer100));
}

/** storemlp_tracegen --wc --compress, then storemlp_sim --trace under
 *  each listed config. */
void
traceFileWc(const Args &a)
{
    WorkloadProfile profile = WorkloadProfile::specjbb();
    uint64_t seed = a.num("seed");
    uint64_t count = a.num("count");
    std::string path = a.str("trace-path");

    g_tracer.setRun(-1);
    {
        ScopedSpan setup("setup");
        Trace trace;
        {
            ScopedSpan s("trace.generate");
            SyntheticTraceGenerator gen(profile, seed, 0);
            trace = gen.generate(count);
        }
        g_tracer.count("trace.generate.records",
                       static_cast<double>(trace.size()));
        g_tracer.count("trace.rewrite.in",
                       static_cast<double>(trace.size()));
        {
            ScopedSpan s("trace.rewrite");
            trace = TraceRewriter().toWeakConsistency(trace);
        }
        g_tracer.count("trace.rewrite.out",
                       static_cast<double>(trace.size()));
        std::string fp = profile.cacheKey() +
            "|seed=" + std::to_string(seed) +
            "|n=" + std::to_string(count) + "|wc=1|chip=0";
        {
            ScopedSpan s("trace.encode");
            writeTraceFileV4(path, trace, fp, 65536);
        }
        g_tracer.count("trace.encode.records",
                       static_cast<double>(trace.size()));
        g_tracer.count("trace.encode.bytes",
                       static_cast<double>(
                           std::filesystem::file_size(path)));
    }

    std::vector<std::string> configs;
    std::string list = a.str("configs");
    for (size_t pos = 0; pos <= list.size();) {
        size_t end = std::min(list.find(',', pos), list.size());
        configs.push_back(list.substr(pos, end - pos));
        pos = end + 1;
    }

    for (uint64_t rep = 0; rep < a.num("reps"); ++rep) {
        g_tracer.setRun(static_cast<int>(rep));
        ScopedSpan op("op");
        for (const std::string &cfg_path : configs) {
            RunSpec spec;
            spec.profile = profile;
            spec.config = loadSimConfigFile(cfg_path);
            spec.seed = seed;
            spec.warmupInsts = a.num("warmup");
            std::unique_ptr<TraceSource> file;
            {
                ScopedSpan s("trace.decode");
                file = std::make_unique<StreamingFileSource>(path, 0);
            }
            TimedSource src(std::move(file), "trace.decode",
                            /*lanes=*/true);
            RunOutput out;
            {
                ScopedSpan s("core.engine");
                out = Runner::run(spec, src);
            }
            g_tracer.doc(std::filesystem::path(cfg_path).stem().string(),
                         exportJson(out));
        }
    }
}

/**
 * Relays one loopback connection and counts the frames and bytes
 * crossing it, parsing the u32-LE length prefix of each frame.
 */
class FrameCountingRelay
{
  public:
    explicit FrameCountingRelay(uint16_t upstream) : _upstream(upstream)
    {
        _listener.listen("127.0.0.1", 0);
        _thread = std::thread([this] {
            try {
                serve();
            } catch (const std::exception &e) {
                // The client then fails to connect and reports it.
                std::cerr << "relay: " << e.what() << "\n";
            }
        });
    }
    ~FrameCountingRelay()
    {
        _stop.store(true);
        _thread.join();
    }
    FrameCountingRelay(const FrameCountingRelay &) = delete;
    FrameCountingRelay &operator=(const FrameCountingRelay &) = delete;

    uint16_t port() const { return _listener.port(); }
    uint64_t frames() const { return _frames.load(); }
    uint64_t bytes() const { return _bytes.load(); }

  private:
    struct Direction
    {
        int from;
        int to;
        unsigned char head[4] = {};
        uint32_t headFill = 0;
        uint64_t bodyLeft = 0;
        bool open = true;
    };

    void
    countBytes(Direction &d, const unsigned char *p, size_t n)
    {
        _bytes += n;
        while (n) {
            if (d.bodyLeft) {
                size_t k = std::min<uint64_t>(d.bodyLeft, n);
                d.bodyLeft -= k;
                p += k;
                n -= k;
                continue;
            }
            d.head[d.headFill++] = *p++;
            --n;
            if (d.headFill == 4) {
                d.bodyLeft = uint32_t{d.head[0]} |
                             (uint32_t{d.head[1]} << 8) |
                             (uint32_t{d.head[2]} << 16) |
                             (uint32_t{d.head[3]} << 24);
                d.headFill = 0;
                ++_frames;
            }
        }
    }

    void
    serve()
    {
        int client = _listener.accept(_stop);
        if (client < 0)
            return;
        int server = -1;
        try {
            server = net::tcpConnect("127.0.0.1", _upstream);
        } catch (...) {
            ::close(client); // the client sees EOF instead of waiting
            throw;
        }
        Direction dirs[2] = {{client, server}, {server, client}};
        unsigned char buf[1 << 16];
        while (!_stop.load() && (dirs[0].open || dirs[1].open)) {
            pollfd pfd[2] = {{dirs[0].from, POLLIN, 0},
                             {dirs[1].from, POLLIN, 0}};
            for (int i = 0; i < 2; ++i)
                if (!dirs[i].open)
                    pfd[i].fd = -1;
            if (::poll(pfd, 2, 100) <= 0)
                continue;
            for (int i = 0; i < 2; ++i) {
                if (!dirs[i].open || !(pfd[i].revents & (POLLIN | POLLHUP)))
                    continue;
                ssize_t n = ::read(dirs[i].from, buf, sizeof buf);
                if (n <= 0) {
                    ::shutdown(dirs[i].to, SHUT_WR);
                    dirs[i].open = false;
                    continue;
                }
                countBytes(dirs[i], buf, static_cast<size_t>(n));
                for (ssize_t off = 0; off < n;) {
                    ssize_t w = ::write(dirs[i].to, buf + off,
                                        static_cast<size_t>(n - off));
                    if (w <= 0)
                        break;
                    off += w;
                }
            }
        }
        ::close(client);
        ::close(server);
    }

    uint16_t _upstream;
    net::TcpListener _listener;
    std::atomic<bool> _stop{false};
    std::atomic<uint64_t> _frames{0};
    std::atomic<uint64_t> _bytes{0};
    std::thread _thread;
};

/** Build the request storemlp_sweepc builds from --dir/--models. */
SweepRequest
sweepRequest(const Args &a)
{
    SweepRequest req;
    std::vector<std::filesystem::path> files;
    for (const auto &e :
         std::filesystem::directory_iterator(a.str("config-dir"))) {
        if (e.path().extension() == ".cfg")
            files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto &f : files)
        req.configs.push_back({f.stem().string(),
                               loadSimConfigFile(f.string())});
    req.workloads = {"database", "tpcw", "specjbb", "specweb"};
    req.models = {"pc", "wc"};
    req.warmupInsts = a.num("warmup");
    req.measureInsts = a.num("measure");
    req.seed = a.num("seed");
    req.streaming = true;
    // The daemon parses the request from its wire text form.
    return sweepRequestFromText(sweepRequestToText(req));
}

/** storemlp_sweepd --once + one storemlp_sweepc connection. */
void
sweepLoopback(const Args &a)
{
    unsigned jobs = static_cast<unsigned>(a.num("jobs"));
    SweepRequest req;
    g_tracer.setRun(-1);
    {
        ScopedSpan setup("setup");
        ScopedSpan s("core.config");
        req = sweepRequest(a);
    }
    const ArtifactSource src{"storemlp_sweepd", localHostName(),
                             sweepRequestFingerprint(req)};

    for (uint64_t rep = 0; rep < a.num("reps"); ++rep) {
        g_tracer.setRun(static_cast<int>(rep));
        // In-process execute with the daemon's per-run export.
        TraceCache::global().clear();
        TraceCache::global().resetStats();
        {
            ScopedSpan local("local");
            SweepOptions opts;
            opts.jobs = jobs;
            opts.progress = false;
            SweepEngine engine(opts, &TraceCache::global());
            ScopedSpan sweep("core.sweep");
            int sweep_id = sweep.id;
            std::vector<RunOutcome> outcomes = engine.execute(
                req, [&](const RunOutcome &o, size_t, size_t) {
                    std::string json;
                    {
                        ScopedSpan s("stats.export", sweep_id);
                        json = runOutcomeJson(o, src, req.seed,
                                              req.warmupInsts,
                                              req.measureInsts);
                    }
                    g_tracer.count("stats.json_bytes",
                                   static_cast<double>(json.size()));
                    g_tracer.count("core.sweep.run_ms." + o.name,
                                   o.wallMs);
                    g_tracer.count("core.sweep.failed", o.ok ? 0 : 1);
                    g_tracer.count("core.sweep.retries",
                                   o.attempts ? o.attempts - 1 : 0);
                    g_tracer.doc(o.name, json);
                });
            g_tracer.count("core.sweep.runs",
                           static_cast<double>(outcomes.size()));
            g_tracer.count("core.sweep.jobs", jobs);
        }
        TraceCacheStats cs = TraceCache::global().stats();
        g_tracer.count("trace.cache.hits", static_cast<double>(cs.hits));
        g_tracer.count("trace.cache.misses",
                       static_cast<double>(cs.misses));
        g_tracer.count("trace.cache.evictions",
                       static_cast<double>(cs.evictions));

        // The same request through an in-process daemon over loopback.
        TraceCache::global().clear();
        net::SweepServerOptions so;
        so.jobs = jobs;
        so.maxConnections = 1;
        net::SweepServer server(so);
        server.start();
        net::SweepClientOptions co;
        co.port = server.port();
        {
            ScopedSpan op("op");
            ScopedSpan remote("net.remote");
            // Open until the first streamed result arrives.
            int first_id = g_tracer.open("net.first_result", remote.id);
            bool first = true;
            net::RemoteSweepReport report = net::runSweepRemote(
                req, co, [&](const net::RemoteRunResult &, size_t, size_t) {
                    if (first)
                        g_tracer.close(first_id);
                    first = false;
                });
            g_tracer.count("net.reconnects", report.reconnects);
            g_tracer.count("net.failed",
                           static_cast<double>(report.failedRuns()));
        }
        server.waitUntilFinished();
        server.stop();
    }

    // Wire volume: one more batch through a frame-counting relay.
    g_tracer.setRun(static_cast<int>(a.num("reps")));
    {
        ScopedSpan aux("aux");
        TraceCache::global().clear();
        net::SweepServerOptions so;
        so.jobs = jobs;
        so.maxConnections = 1;
        net::SweepServer server(so);
        server.start();
        FrameCountingRelay relay(server.port());
        net::SweepClientOptions co;
        co.port = relay.port();
        (void)net::runSweepRemote(req, co);
        server.waitUntilFinished();
        server.stop();
        g_tracer.count("net.frames", static_cast<double>(relay.frames()));
        g_tracer.count("net.bytes", static_cast<double>(relay.bytes()));

        // The PC->WC rewrite the batch's WC runs stream through,
        // composed as Runner::makeSource composes it.
        for (const std::string &wl : req.workloads) {
            WorkloadProfile profile = workloadProfileForName(wl);
            auto gen = std::make_unique<TimedSource>(
                std::make_unique<GeneratorSource>(
                    profile, req.seed, req.warmupInsts + req.measureInsts,
                    0, req.chunkInsts),
                "trace.generate", /*lanes=*/false);
            TimedSource wc(std::make_unique<WcRewriteSource>(std::move(gen)),
                           "trace.rewrite", /*lanes=*/false);
            for (uint64_t k = 0; wc.fetch(k); ++k) {
            }
        }
    }
}

/** storemlp_sim --cores N --chips M --smac-entries E --moesi. */
void
multicoreSmac(const Args &a)
{
    MultiRunSpec spec;
    spec.profile = WorkloadProfile::database();
    spec.seed = a.num("seed");
    spec.warmupInsts = a.num("warmup");
    spec.measureInsts = a.num("measure");
    spec.cores = static_cast<uint32_t>(a.num("cores"));
    spec.chips = static_cast<uint32_t>(a.num("chips"));
    SmacConfig smac;
    smac.entries = static_cast<uint32_t>(a.num("smac-entries"));
    spec.smac = smac;
    spec.protocol = CoherenceProtocol::Moesi;

    for (uint64_t rep = 0; rep < a.num("reps"); ++rep) {
        g_tracer.setRun(static_cast<int>(rep));
        ScopedSpan op("op");
        MultiRunOutput out;
        {
            ScopedSpan s("core.multicore");
            out = MultiCoreRunner::run(spec);
        }
        ScopedSpan s("stats.export");
        StatsRegistry reg;
        out.exportStats(reg);
        g_tracer.doc("mc", statsToJson(reg, StatsMeta{}, true));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args a(argc, argv);
        std::string wl = a.str("workload");
        if (wl == "sim_stream_pc")
            simStreamPc(a);
        else if (wl == "trace_file_wc")
            traceFileWc(a);
        else if (wl == "sweep_loopback")
            sweepLoopback(a);
        else if (wl == "multicore_smac")
            multicoreSmac(a);
        else
            throw std::invalid_argument("unknown workload " + wl);

        std::ofstream os(a.str("out"));
        g_tracer.write(os);
        os.close();
        if (!os)
            throw std::runtime_error("cannot write " + a.str("out"));
    } catch (const std::exception &e) {
        std::cerr << "storemlp_layertrace: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
