/**
 * @file
 * The sweep daemon core: accepts connections, speaks the framed
 * protocol (Hello/HelloAck handshake, Submit -> streamed RunResult
 * frames -> JobDone), and executes each submitted `SweepRequest` on a
 * `SweepEngine` worker pool. Every connection gets a fresh engine, and
 * each batch makes its own traces (one producer per trace group), so
 * nothing of one batch's traces stays resident for the next.
 *
 * Fault stance mirrors the engine's: a malformed request or an
 * unknown frame draws an Error frame and the connection lives on; a
 * client that vanishes mid-stream kills only its own connection
 * (results for in-flight runs are discarded, the engine finishes the
 * batch, the server keeps serving). Delivery is therefore
 * at-least-once from the client's point of view — the client rebuilds
 * missing shards by resubmitting with a `runFilter`.
 */

#ifndef STOREMLP_NET_SWEEP_SERVER_HH
#define STOREMLP_NET_SWEEP_SERVER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hh"

namespace storemlp::net
{

/** Daemon knobs. */
struct SweepServerOptions
{
    std::string host = "127.0.0.1";
    /** Port to bind; 0 picks an ephemeral port (see port()). */
    uint16_t port = 0;
    /** Worker threads per submitted batch; 0 = SweepEngine default. */
    unsigned jobs = 0;
    /** Stop accepting after this many connections; 0 = unlimited. */
    unsigned maxConnections = 0;
    /**
     * Fault-injection hook for the retry tests: the first connection
     * that submits a batch is torn down after this many RunResult
     * frames, as if the server crashed mid-stream. 0 disables.
     */
    unsigned dropAfterResults = 0;
};

/** Accept loop + per-connection protocol handlers. */
class SweepServer
{
  public:
    explicit SweepServer(SweepServerOptions opts = {});
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** Bind and start the accept thread. Throws NetError on bind. */
    void start();

    /** Port actually bound; valid after start(). */
    uint16_t port() const { return _port; }

    /** Accept loop has exited (maxConnections reached or stopped). */
    bool finished() const { return _finished.load(); }

    /**
     * Block until the accept loop exits — with `maxConnections` set
     * this is "serve N connections to completion, then return".
     */
    void waitUntilFinished();

    /** Stop accepting, drain handlers, join. Idempotent. */
    void stop();

    uint64_t connectionsServed() const { return _connections.load(); }

  private:
    void acceptLoop();
    void serveConnection(int fd);
    /** Track `conn` for stop(); false (not tracked) once stopping. */
    bool registerConn(FrameConn *conn);
    void unregisterConn(FrameConn *conn);

    SweepServerOptions _opts;
    /** Live connections, so stop() can kick handlers off recv(). */
    std::mutex _connMu;
    std::vector<FrameConn *> _activeConns;
    TcpListener _listener;
    uint16_t _port = 0;
    std::thread _acceptThread;
    std::atomic<bool> _stop{false};
    std::atomic<bool> _finished{false};
    std::atomic<uint64_t> _connections{0};
    /** One-shot arm for dropAfterResults (first submit only). */
    std::atomic<bool> _dropArmed{true};
};

} // namespace storemlp::net

#endif // STOREMLP_NET_SWEEP_SERVER_HH
