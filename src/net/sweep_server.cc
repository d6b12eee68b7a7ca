/**
 * @file
 * Sweep daemon implementation.
 */

#include "net/sweep_server.hh"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <vector>

#include "core/sweep.hh"
#include "core/sweep_request.hh"
#include "stats/stats_json.hh"

namespace storemlp::net
{

namespace
{

std::string
summaryJson(size_t runs, size_t ok, size_t failed,
            const SweepEngine &engine)
{
    std::ostringstream oss;
    JsonWriter w(oss, /*pretty=*/false);
    w.beginObject();
    w.key("schemaVersion").value(kStatsSchemaVersion);
    w.key("meta").beginObject();
    // string_view-typed: a bare literal would resolve to value(bool).
    w.key("tool").value(std::string_view("storemlp_sweepd"));
    w.key("kind").value(std::string_view("sweep-summary"));
    w.endObject();
    w.key("summary").beginObject();
    w.key("runs").value(static_cast<uint64_t>(runs));
    w.key("ok").value(static_cast<uint64_t>(ok));
    w.key("failed").value(static_cast<uint64_t>(failed));
    w.key("simulations").value(engine.simulations());
    w.key("traceGroups").value(engine.traceGroups());
    w.key("traceChunksProduced").value(engine.traceChunksProduced());
    w.endObject();
    w.endObject();
    return oss.str();
}

} // namespace

SweepServer::SweepServer(SweepServerOptions opts) : _opts(std::move(opts))
{
}

SweepServer::~SweepServer()
{
    stop();
}

void
SweepServer::start()
{
    _listener.listen(_opts.host, _opts.port);
    _port = _listener.port();
    _acceptThread = std::thread([this] { acceptLoop(); });
}

void
SweepServer::waitUntilFinished()
{
    if (_acceptThread.joinable())
        _acceptThread.join();
}

void
SweepServer::stop()
{
    _stop.store(true);
    {
        // Kick handlers blocked in recv() on idle connections —
        // shutdown only; each handler closes its own fd on exit.
        std::lock_guard<std::mutex> lk(_connMu);
        for (FrameConn *conn : _activeConns)
            conn->shutdown();
    }
    // The accept loop polls the listener and sees _stop within one
    // poll interval; close the listener only once that thread is gone.
    waitUntilFinished();
    _listener.close();
}

bool
SweepServer::registerConn(FrameConn *conn)
{
    // stop() sets _stop before it takes _connMu to kick the registered
    // connections, so a handler that registers late (its client was
    // accepted during the accept loop's last poll) sees _stop here
    // and is refused instead of blocking in recv() unkicked.
    std::lock_guard<std::mutex> lk(_connMu);
    if (_stop.load())
        return false;
    _activeConns.push_back(conn);
    return true;
}

void
SweepServer::unregisterConn(FrameConn *conn)
{
    std::lock_guard<std::mutex> lk(_connMu);
    _activeConns.erase(
        std::find(_activeConns.begin(), _activeConns.end(), conn));
}

void
SweepServer::acceptLoop()
{
    std::vector<std::thread> handlers;
    while (!_stop.load()) {
        if (_opts.maxConnections &&
            _connections.load() >= _opts.maxConnections) {
            break;
        }
        int fd = _listener.accept(_stop);
        if (fd < 0)
            break;
        _connections.fetch_add(1);
        handlers.emplace_back([this, fd] { serveConnection(fd); });
    }
    for (std::thread &t : handlers)
        t.join();
    _finished.store(true);
}

void
SweepServer::serveConnection(int fd)
{
    FrameConn conn(fd);
    if (!registerConn(&conn))
        return; // the server is stopping: close without serving
    struct Unregister
    {
        SweepServer *server;
        FrameConn *conn;
        ~Unregister() { server->unregisterConn(conn); }
    } unregister{this, &conn};
    try {
        // Handshake: the client leads with Hello; anything else (or a
        // version we do not speak) draws an Error frame and a close.
        Frame frame;
        if (!conn.recv(frame))
            return;
        if (frame.type != MsgType::Hello) {
            conn.send(MsgType::Error, "expected Hello frame");
            return;
        }
        uint32_t version = getU32(frame.payload, 0);
        if (version != kProtocolVersion) {
            conn.send(MsgType::Error,
                      "protocol version mismatch: client speaks v" +
                          std::to_string(version) + ", server speaks v" +
                          std::to_string(kProtocolVersion));
            return;
        }
        std::string ack;
        putU32(ack, kProtocolVersion);
        putU32(ack, static_cast<uint32_t>(kStatsSchemaVersion));
        conn.send(MsgType::HelloAck, ack);

        while (conn.recv(frame)) {
            if (frame.type != MsgType::Submit) {
                conn.send(MsgType::Error,
                          "unexpected frame type " +
                              std::to_string(static_cast<unsigned>(
                                  frame.type)) +
                              " (want Submit)");
                continue;
            }

            SweepRequest request;
            try {
                request = sweepRequestFromText(frame.payload);
                // Expansion errors (unknown workload/model, bad
                // filter) surface here, before any run starts.
                (void)expandSweepRuns(request);
            } catch (const SimError &e) {
                conn.send(MsgType::Error,
                          std::string("bad sweep request: ") + e.what());
                continue;
            }

            ArtifactSource src;
            src.tool = "storemlp_sweepd";
            src.host = localHostName();
            src.requestFingerprint = sweepRequestFingerprint(request);

            const unsigned drop_after =
                (_opts.dropAfterResults &&
                 _dropArmed.exchange(false))
                    ? _opts.dropAfterResults
                    : 0;

            SweepOptions sw;
            sw.jobs = _opts.jobs;
            sw.progress = false;
            SweepEngine engine(sw);

            std::mutex write_mu;
            bool dead = false;
            size_t sent = 0, n_ok = 0, n_failed = 0;
            auto observer = [&](const RunOutcome &outcome, size_t,
                                size_t) {
                std::lock_guard<std::mutex> lk(write_mu);
                if (outcome.ok)
                    ++n_ok;
                else
                    ++n_failed;
                if (dead)
                    return;
                try {
                    conn.send(MsgType::RunResult,
                              runOutcomeJson(outcome, src, request.seed,
                                             request.warmupInsts,
                                             request.measureInsts));
                    ++sent;
                } catch (const NetError &) {
                    // The client is gone; finish the batch quietly —
                    // the engine must not fail runs over a dead pipe.
                    dead = true;
                }
                if (drop_after && sent >= drop_after) {
                    // Fault injection: crash this connection
                    // mid-stream. The client recovers by retrying the
                    // missing shards. Shutdown, not close: stop() may
                    // read this registered conn's fd from another
                    // thread; the fd is closed when the handler returns.
                    conn.shutdown();
                    dead = true;
                }
            };

            std::vector<RunOutcome> outcomes =
                engine.execute(request, observer);
            (void)outcomes;

            std::lock_guard<std::mutex> lk(write_mu);
            if (dead)
                return;
            conn.send(MsgType::JobDone,
                      summaryJson(n_ok + n_failed, n_ok, n_failed,
                                  engine));
        }
    } catch (const SimError &) {
        // Truncated frame, oversized prefix, mid-frame disconnect:
        // this connection is unusable, but the server keeps serving.
    }
}

} // namespace storemlp::net
