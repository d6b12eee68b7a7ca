/**
 * @file
 * Networked sweep service tests: wire-framing torture (truncated
 * frames, oversized and zero length prefixes), handshake version
 * gating, server fault containment (garbage frames, clients that
 * vanish mid-batch), client shard-retry recovery against an injected
 * server-side connection drop, request serialization round-trips, and
 * the end-to-end loopback proof that per-run stats streamed by the
 * daemon are bit-identical to a local engine executing the same
 * request — the property that makes remote sweeps trustworthy.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "core/config_io.hh"
#include "core/sweep.hh"
#include "core/sweep_request.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "net/sweep_client.hh"
#include "net/sweep_server.hh"
#include "stats/stats_json.hh"
#include "trace/trace_format.hh"

using namespace storemlp;
using namespace storemlp::net;

namespace
{

#ifndef STOREMLP_CONFIG_DIR
#define STOREMLP_CONFIG_DIR "configs"
#endif

/** Load the shipped configs (sorted by stem), optionally capped. */
std::vector<SweepConfigEntry>
shippedConfigs(size_t limit = 0)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(STOREMLP_CONFIG_DIR)) {
        if (entry.path().extension() == ".cfg")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (limit && files.size() > limit)
        files.resize(limit);
    std::vector<SweepConfigEntry> out;
    for (const auto &f : files) {
        SweepConfigEntry e;
        e.name = f.stem().string();
        e.config = loadSimConfigFile(f.string());
        out.push_back(std::move(e));
    }
    return out;
}

/** A fast request over the test workload. */
SweepRequest
tinyRequest(size_t nconfigs, std::vector<std::string> models = {})
{
    SweepRequest req;
    req.configs = shippedConfigs(nconfigs);
    req.workloads = {"tiny"};
    req.models = std::move(models);
    req.warmupInsts = 2000;
    req.measureInsts = 4000;
    req.seed = 7;
    return req;
}

/** Connected socketpair wrapped in FrameConns. */
struct ConnPair
{
    std::unique_ptr<FrameConn> a, b;

    ConnPair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = std::make_unique<FrameConn>(fds[0]);
        b = std::make_unique<FrameConn>(fds[1]);
    }
};

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(NetFrame, RoundTripsTypesAndPayloads)
{
    ConnPair p;
    p.a->send(MsgType::Hello, std::string("\x01\x00\x00\x00", 4));
    p.a->send(MsgType::Submit, "workloads = tiny");
    p.a->send(MsgType::JobDone, ""); // empty payload is legal

    Frame f;
    ASSERT_TRUE(p.b->recv(f));
    EXPECT_EQ(f.type, MsgType::Hello);
    EXPECT_EQ(getU32(f.payload, 0), 1u);
    ASSERT_TRUE(p.b->recv(f));
    EXPECT_EQ(f.type, MsgType::Submit);
    EXPECT_EQ(f.payload, "workloads = tiny");
    ASSERT_TRUE(p.b->recv(f));
    EXPECT_EQ(f.type, MsgType::JobDone);
    EXPECT_TRUE(f.payload.empty());

    // Clean close at a frame boundary reads as EOF, not an error.
    p.a->close();
    EXPECT_FALSE(p.b->recv(f));
}

TEST(NetFrame, TruncatedFrameThrows)
{
    ConnPair p;
    // Length prefix promises 100 bytes; deliver the type byte and 3
    // more, then vanish.
    std::string partial;
    putU32(partial, 100);
    partial.push_back(static_cast<char>(MsgType::Submit));
    partial += "abc";
    ASSERT_EQ(::send(p.a->fd(), partial.data(), partial.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    p.a->close();

    Frame f;
    try {
        p.b->recv(f);
        FAIL() << "expected NetError";
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST(NetFrame, OversizedLengthPrefixRejectedBeforeAllocation)
{
    ConnPair p;
    std::string prefix;
    putU32(prefix, 0xffffffffu); // ~4 GB claim
    ASSERT_EQ(::send(p.a->fd(), prefix.data(), prefix.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(prefix.size()));

    Frame f;
    try {
        p.b->recv(f);
        FAIL() << "expected NetError";
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("oversized"),
                  std::string::npos)
            << e.what();
    }
}

TEST(NetFrame, ZeroLengthFrameRejected)
{
    ConnPair p;
    std::string prefix;
    putU32(prefix, 0);
    ASSERT_EQ(::send(p.a->fd(), prefix.data(), prefix.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(prefix.size()));
    Frame f;
    EXPECT_THROW(p.b->recv(f), NetError);
}

TEST(NetFrame, SendRefusesPayloadOverCap)
{
    ConnPair p;
    std::string huge(kMaxFrameBytes, 'x');
    EXPECT_THROW(p.a->send(MsgType::Submit, huge), NetError);
}

TEST(NetFrame, GetU32PastEndThrows)
{
    EXPECT_THROW(getU32("abc", 0), NetError);
    std::string four;
    putU32(four, 0xdeadbeefu);
    EXPECT_EQ(getU32(four, 0), 0xdeadbeefu);
    EXPECT_THROW(getU32(four, 1), NetError);
}

// ---------------------------------------------------------------------
// Request serialization
// ---------------------------------------------------------------------

TEST(SweepRequestIo, TextRoundTripIsFixpoint)
{
    SweepRequest req = tinyRequest(3, {"pc", "wc"});
    req.retries = 2;
    req.streaming = true;
    req.chunkInsts = 1024;

    std::string text = sweepRequestToText(req);
    SweepRequest back = sweepRequestFromText(text);
    EXPECT_EQ(sweepRequestToText(back), text);

    EXPECT_EQ(back.workloads, req.workloads);
    EXPECT_EQ(back.models, req.models);
    EXPECT_EQ(back.warmupInsts, req.warmupInsts);
    EXPECT_EQ(back.measureInsts, req.measureInsts);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.retries, req.retries);
    EXPECT_EQ(back.streaming, req.streaming);
    EXPECT_EQ(back.chunkInsts, req.chunkInsts);
    ASSERT_EQ(back.configs.size(), req.configs.size());
    for (size_t i = 0; i < back.configs.size(); ++i)
        EXPECT_EQ(back.configs[i].name, req.configs[i].name);

    // The round-tripped request expands to the same planned runs.
    std::vector<PlannedRun> a = expandSweepRuns(req);
    std::vector<PlannedRun> b = expandSweepRuns(back);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].name, b[i].name);
}

TEST(SweepRequestIo, FingerprintIgnoresRunFilter)
{
    SweepRequest req = tinyRequest(2, {"pc"});
    std::string fp = sweepRequestFingerprint(req);
    EXPECT_EQ(fp.size(), 16u);

    SweepRequest filtered = req;
    filtered.runFilter = {"tiny_" + req.configs[0].name + "@PC"};
    EXPECT_EQ(sweepRequestFingerprint(filtered), fp);

    SweepRequest changed = req;
    changed.seed += 1;
    EXPECT_NE(sweepRequestFingerprint(changed), fp);
}

TEST(SweepRequestIo, ExpansionValidatesNamesAndFilters)
{
    SweepRequest empty;
    EXPECT_THROW(expandSweepRuns(empty), ConfigError);

    SweepRequest req = tinyRequest(2);
    req.workloads = {"nosuch"};
    EXPECT_THROW(expandSweepRuns(req), ConfigError);

    req = tinyRequest(2);
    req.runFilter = {"tiny_" + req.configs[0].name, "tiny_ghost"};
    EXPECT_THROW(expandSweepRuns(req), ConfigError);

    req = tinyRequest(2);
    req.runFilter = {"tiny_" + req.configs[1].name};
    std::vector<PlannedRun> runs = expandSweepRuns(req);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].configName, req.configs[1].name);

    // Duplicate config entries expand to duplicate run names.
    req = tinyRequest(1);
    req.configs.push_back(req.configs[0]);
    EXPECT_THROW(expandSweepRuns(req), ConfigError);

    // Unparsable request text is a ConfigError, not a crash.
    EXPECT_THROW(sweepRequestFromText("frobnicate = yes"),
                 ConfigError);
    EXPECT_THROW(sweepRequestFromText("[config x]\nnot closed"),
                 ConfigError);
}

/** Canonical stats JSON of every outcome, in submission order. */
std::vector<std::string>
outcomeStats(const std::vector<RunOutcome> &outcomes)
{
    std::vector<std::string> out;
    for (const RunOutcome &o : outcomes) {
        EXPECT_TRUE(o.ok) << o.name << ": " << o.errorMessage;
        StatsRegistry reg;
        o.output.exportStats(reg);
        out.push_back(o.name + " " + statsToJson(reg, StatsMeta{}, false));
    }
    return out;
}

// Every sweep streams, so `streaming` is accepted and ignored: old
// clients' request texts still parse, both values run the same
// computation, and keeping the key keeps every request fingerprint.
TEST(SweepRequestIo, StreamingKeyIsAcceptedAndIgnored)
{
    SweepRequest req = tinyRequest(2, {"pc", "wc"});
    std::vector<std::vector<std::string>> stats;
    for (bool streaming : {false, true}) {
        req.streaming = streaming;
        SweepRequest back =
            sweepRequestFromText(sweepRequestToText(req));
        EXPECT_EQ(back.streaming, streaming);
        SweepOptions opts;
        opts.jobs = 2;
        opts.progress = false;
        stats.push_back(outcomeStats(SweepEngine(opts).execute(back)));
    }
    ASSERT_EQ(stats[0].size(), 4u);
    EXPECT_EQ(stats[0], stats[1]);

    // Fingerprints of one fixed canonical request, recorded before the
    // materialized sweep path was removed.
    SweepRequest canonical;
    canonical.configs = {{"base", SimConfig::defaults()},
                         {"wc1", SimConfig::wc1()}};
    canonical.workloads = {"tiny"};
    canonical.models = {"pc", "wc"};
    canonical.warmupInsts = 2000;
    canonical.measureInsts = 4000;
    canonical.seed = 7;
    canonical.retries = 1;
    canonical.chunkInsts = 1021;
    canonical.streaming = false;
    EXPECT_EQ(sweepRequestFingerprint(canonical), "3fdf58fc5ec1309c");
    canonical.streaming = true;
    EXPECT_EQ(sweepRequestFingerprint(canonical), "4653b4f1384389ad");
}

// A chunk size above the v4 cap is refused before any run starts, in
// the text form and in the expansion alike; 0 stays "default".
TEST(SweepRequestIo, OversizedChunkInstsIsConfigErrorBeforeAnyRun)
{
    SweepRequest req = tinyRequest(2);
    req.chunkInsts = trace_format::kMaxChunkInstsV4 + 1;
    EXPECT_THROW(expandSweepRuns(req), ConfigError);
    EXPECT_THROW(sweepRequestFromText(sweepRequestToText(req)),
                 ConfigError);

    std::atomic<int> runs{0};
    SweepOptions opts;
    opts.progress = false;
    opts.runOverride = [&runs](const RunSpec &) {
        ++runs;
        return RunOutput{};
    };
    SweepEngine engine(opts, nullptr);
    EXPECT_THROW(engine.execute(req), ConfigError);
    EXPECT_EQ(runs.load(), 0);
    EXPECT_EQ(engine.runsSucceeded() + engine.runsFailed(), 0u);

    for (uint64_t ok : {uint64_t{0}, trace_format::kMaxChunkInstsV4}) {
        req.chunkInsts = ok;
        EXPECT_EQ(expandSweepRuns(req).size(), 2u);
        EXPECT_EQ(sweepRequestFromText(sweepRequestToText(req)).chunkInsts,
                  ok);
    }
}

// ---------------------------------------------------------------------
// Server protocol behavior
// ---------------------------------------------------------------------

/** Dial a running server and complete the handshake. */
std::unique_ptr<FrameConn>
handshake(uint16_t port, uint32_t version = kProtocolVersion)
{
    auto conn =
        std::make_unique<FrameConn>(tcpConnect("127.0.0.1", port));
    std::string hello;
    putU32(hello, version);
    conn->send(MsgType::Hello, hello);
    return conn;
}

TEST(SweepServer, RejectsVersionMismatchWithErrorFrame)
{
    SweepServer server;
    server.start();

    auto conn = handshake(server.port(), /*version=*/99);
    Frame f;
    ASSERT_TRUE(conn->recv(f));
    EXPECT_EQ(f.type, MsgType::Error);
    EXPECT_NE(f.payload.find("version mismatch"), std::string::npos)
        << f.payload;
    server.stop();
}

TEST(SweepServer, UnknownFrameTypeDrawsErrorAndConnectionSurvives)
{
    SweepServer server;
    server.start();

    auto conn = handshake(server.port());
    Frame f;
    ASSERT_TRUE(conn->recv(f));
    ASSERT_EQ(f.type, MsgType::HelloAck);
    EXPECT_EQ(getU32(f.payload, 0), kProtocolVersion);
    EXPECT_EQ(getU32(f.payload, 4),
              static_cast<uint32_t>(kStatsSchemaVersion));

    // Garbage type: Error frame, not a dropped connection.
    conn->send(static_cast<MsgType>(42), "???");
    ASSERT_TRUE(conn->recv(f));
    EXPECT_EQ(f.type, MsgType::Error);

    // Malformed request body: same containment.
    conn->send(MsgType::Submit, "definitely not a request");
    ASSERT_TRUE(conn->recv(f));
    EXPECT_EQ(f.type, MsgType::Error);
    EXPECT_NE(f.payload.find("bad sweep request"), std::string::npos);

    // The connection is still usable for a real batch afterwards.
    conn->send(MsgType::Submit,
               sweepRequestToText(tinyRequest(1)));
    size_t results = 0;
    bool done = false;
    while (!done && conn->recv(f)) {
        if (f.type == MsgType::RunResult)
            ++results;
        else if (f.type == MsgType::JobDone)
            done = true;
        else
            FAIL() << "unexpected frame type";
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(results, 1u);
    server.stop();
}

TEST(SweepServer, ClientVanishingMidBatchDoesNotKillServer)
{
    SweepServer server;
    server.start();

    {
        // Submit a multi-run batch, read one result, disappear.
        auto conn = handshake(server.port());
        Frame f;
        ASSERT_TRUE(conn->recv(f));
        ASSERT_EQ(f.type, MsgType::HelloAck);
        conn->send(MsgType::Submit,
                   sweepRequestToText(tinyRequest(4)));
        ASSERT_TRUE(conn->recv(f));
        EXPECT_EQ(f.type, MsgType::RunResult);
        conn->close();
    }

    // The server survives and serves a complete batch on a fresh
    // connection.
    SweepClientOptions copts;
    copts.port = server.port();
    copts.maxReconnects = 0;
    RemoteSweepReport report =
        runSweepRemote(tinyRequest(2), copts);
    EXPECT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.failedRuns(), 0u);
    EXPECT_EQ(report.reconnects, 0u);
    server.stop();
}

TEST(SweepServer, StopReturnsWhileClientsKeepConnecting)
{
    // Idle clients (connect, never send) dial every millisecond while
    // stop() starts. One accepted during the accept loop's last poll
    // must be refused, not left blocked in recv(): stop() joins every
    // handler, so that would hang it.
    using Clock = std::chrono::steady_clock;
    for (int round = 0; round < 3; ++round) {
        SweepServer server;
        server.start();
        uint16_t port = server.port();
        std::atomic<bool> stopping{false};
        std::vector<int> clients;
        std::thread dialer([&] {
            // Few dials once stop() has begun: past the listen backlog
            // (16) a connect to a hung server would block for minutes.
            int after_stop = 0;
            while (after_stop < 8) {
                if (stopping.load())
                    ++after_stop;
                try {
                    clients.push_back(tcpConnect("127.0.0.1", port));
                } catch (const NetError &) {
                    break; // listener closed
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));

        std::atomic<bool> stopped{false};
        stopping.store(true);
        std::thread stopper([&] {
            server.stop();
            stopped.store(true);
        });
        Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
        while (!stopped.load() && Clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        bool returned = stopped.load();

        dialer.join();
        // Closing the clients releases any handler stuck in recv(), so
        // a failing round ends instead of hanging the suite.
        for (int fd : clients)
            ::close(fd);
        stopper.join();
        EXPECT_TRUE(returned)
            << "round " << round << ": stop() still waiting after 5 s";
    }
}

// ---------------------------------------------------------------------
// Client retry / shard recovery
// ---------------------------------------------------------------------

TEST(SweepClient, RecoversAllShardsAfterServerSideDrop)
{
    SweepServerOptions sopts;
    sopts.dropAfterResults = 2; // crash the first stream after 2 runs
    SweepServer server(sopts);
    server.start();

    SweepClientOptions copts;
    copts.port = server.port();
    copts.maxReconnects = 3;

    SweepRequest req = tinyRequest(3, {"pc", "wc"}); // 6 runs
    size_t streamed = 0;
    RemoteSweepReport report = runSweepRemote(
        req, copts,
        [&](const RemoteRunResult &, size_t, size_t) { ++streamed; });

    ASSERT_EQ(report.results.size(), 6u);
    EXPECT_EQ(streamed, 6u);
    EXPECT_GE(report.reconnects, 1u);
    EXPECT_EQ(report.failedRuns(), 0u);
    // Results hold their expansion-order slots with matching names.
    std::vector<PlannedRun> planned = expandSweepRuns(req);
    for (size_t i = 0; i < planned.size(); ++i)
        EXPECT_EQ(report.results[i].name, planned[i].name);
    EXPECT_FALSE(report.summaryJson.empty());
    server.stop();
}

TEST(SweepClient, ExhaustedReconnectBudgetRaisesNetError)
{
    // A server that drops after every first result and only accepts
    // one connection: the client cannot finish a 3-run batch.
    SweepServerOptions sopts;
    sopts.dropAfterResults = 1;
    sopts.maxConnections = 1;
    SweepServer server(sopts);
    server.start();

    SweepClientOptions copts;
    copts.port = server.port();
    copts.maxReconnects = 0;
    EXPECT_THROW(runSweepRemote(tinyRequest(3), copts), NetError);
    server.stop();
}

// ---------------------------------------------------------------------
// End-to-end: remote == local, bit for bit
// ---------------------------------------------------------------------

/**
 * The acceptance property: every shipped config crossed with the four
 * model presets, submitted over loopback, must come back with per-run
 * stats bit-identical to a local engine executing the same request —
 * and stay identical when a mid-batch connection drop forces the
 * client to recover shards by resubmission.
 */
void
expectRemoteMatchesLocal(unsigned drop_after, bool bad_request_first = false)
{
    SweepRequest req;
    req.configs = shippedConfigs(); // all nine
    req.workloads = {"tiny"};
    req.models = {"pc", "wc", "rmo", "wmm"};
    req.warmupInsts = 2000;
    req.measureInsts = 4000;
    req.seed = 11;

    // Local reference: same request, in-process engine.
    SweepEngine local;
    std::vector<RunOutcome> expected = local.execute(req);
    ASSERT_FALSE(expected.empty());

    SweepServerOptions sopts;
    sopts.dropAfterResults = drop_after;
    SweepServer server(sopts);
    server.start();
    if (bad_request_first) {
        // A hand-written Submit whose [config] body holds a zero-entry
        // store queue is refused before any run starts.
        std::string text = sweepRequestToText(tinyRequest(1));
        const std::string sq = "storeQueueSize = 32\n";
        ASSERT_NE(text.find(sq), std::string::npos);
        text.replace(text.find(sq), sq.size(), "storeQueueSize = 0\n");
        auto conn = handshake(server.port());
        Frame f;
        ASSERT_TRUE(conn->recv(f));
        ASSERT_EQ(f.type, MsgType::HelloAck);
        conn->send(MsgType::Submit, text);
        ASSERT_TRUE(conn->recv(f));
        EXPECT_EQ(f.type, MsgType::Error);
        EXPECT_NE(f.payload.find("bad sweep request"), std::string::npos)
            << f.payload;
        EXPECT_NE(f.payload.find("storeQueueSize"), std::string::npos)
            << f.payload;
    }
    SweepClientOptions copts;
    copts.port = server.port();
    RemoteSweepReport report = runSweepRemote(req, copts);
    server.stop();

    ASSERT_EQ(report.results.size(), expected.size());
    if (drop_after) {
        EXPECT_GE(report.reconnects, 1u);
    }
    for (size_t i = 0; i < expected.size(); ++i) {
        const RunOutcome &want = expected[i];
        const RemoteRunResult &got = report.results[i];
        ASSERT_TRUE(got.ok) << got.name << ": " << got.errorMessage;
        ASSERT_EQ(got.name, want.name);

        StatsEnvelope env;
        int version = 0;
        StatsRegistry remote_reg =
            statsFromJson(got.json, &env, &version);
        EXPECT_EQ(version, kStatsSchemaVersion);

        StatsRegistry want_reg;
        want.output.exportStats(want_reg);
        // Compare canonical serializations: parsing is value- but not
        // kind-preserving (an integral Scalar reads back as a
        // Counter), and the acceptance bar is bit-identical JSON
        // stats, which is exactly what re-serialization checks.
        EXPECT_EQ(statsToJson(remote_reg, StatsMeta{}, false),
                  statsToJson(want_reg, StatsMeta{}, false))
            << got.name
            << ": remote stats diverged from the local engine";

        // The v2 envelope carries the run identity and provenance.
        auto runVal = [&](const char *key) -> std::string {
            for (const auto &[k, v] : env.run)
                if (k == key)
                    return v;
            return "<missing>";
        };
        EXPECT_EQ(runVal("name"), want.name);
        EXPECT_EQ(runVal("workload"), "tiny");
        EXPECT_EQ(runVal("seed"), "11");
        EXPECT_EQ(runVal("ok"), "1");
        auto srcVal = [&](const char *key) -> std::string {
            for (const auto &[k, v] : env.source)
                if (k == key)
                    return v;
            return "<missing>";
        };
        EXPECT_EQ(srcVal("request"), sweepRequestFingerprint(req));
        EXPECT_EQ(srcVal("tool"), "storemlp_sweepd");
    }
}

/** A run's stats as canonical JSON, the form the wire carries. */
std::string
statsText(const RunOutput &out)
{
    StatsRegistry reg;
    out.exportStats(reg);
    return statsToJson(reg, StatsMeta{}, false);
}

/**
 * Under `--models`, shipped configs that differ only in their memory
 * model collapse (pc1/wc1/rmo1/wmm1, pc2/wc2, pc3/wc3): the nine
 * configs x pc;wc batch is 18 runs and 8 simulations. Every run,
 * shared or not, must equal its spec run alone, at jobs 1 and 4 and
 * through a loopback daemon.
 */
TEST(SweepLoopback, SharedSimulationsMatchEachRunAlone)
{
    SweepRequest req = tinyRequest(0, {"pc", "wc"});
    std::vector<PlannedRun> runs = expandSweepRuns(req);
    ASSERT_EQ(runs.size(), 18u);
    std::vector<std::string> alone;
    for (const PlannedRun &run : runs) {
        std::unique_ptr<TraceSource> src =
            openRunSource(SourceSpec::forRun(run.spec));
        alone.push_back(statsText(Runner::run(run.spec, *src)));
    }

    for (unsigned jobs : {1u, 4u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        SweepEngine engine(opts);
        std::vector<RunOutcome> got = engine.execute(req);
        EXPECT_EQ(engine.simulations(), 8u);
        ASSERT_EQ(got.size(), runs.size());
        for (size_t i = 0; i < runs.size(); ++i) {
            ASSERT_TRUE(got[i].ok) << got[i].errorMessage;
            EXPECT_EQ(got[i].name, runs[i].name);
            EXPECT_EQ(statsText(got[i].output), alone[i])
                << "jobs " << jobs << " " << runs[i].name;
        }
    }

    SweepServer server;
    server.start();
    SweepClientOptions copts;
    copts.port = server.port();
    RemoteSweepReport report = runSweepRemote(req, copts);
    server.stop();
    ASSERT_EQ(report.results.size(), runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
        const RemoteRunResult &got = report.results[i];
        ASSERT_TRUE(got.ok) << got.name << ": " << got.errorMessage;
        EXPECT_EQ(got.name, runs[i].name);
        EXPECT_EQ(statsToJson(statsFromJson(got.json), StatsMeta{}, false),
                  alone[i])
            << got.name;
    }
    EXPECT_NE(report.summaryJson.find("\"simulations\":8"),
              std::string::npos)
        << report.summaryJson;
}

TEST(SweepLoopback, AllConfigsAllModelsBitIdenticalToLocal)
{
    expectRemoteMatchesLocal(/*drop_after=*/0);
}

TEST(SweepLoopback, BitIdenticalEvenAcrossInjectedShardLoss)
{
    expectRemoteMatchesLocal(/*drop_after=*/5);
}

TEST(SweepLoopback, OutOfRangeConfigIsRefusedThenNextBatchMatchesLocal)
{
    expectRemoteMatchesLocal(/*drop_after=*/0, /*bad_request_first=*/true);
}

} // namespace
