/**
 * @file
 * storemlp_sweepd: the sweep daemon. Listens on loopback (or a given
 * address), accepts framed-protocol connections from storemlp_sweepc,
 * and executes submitted sweep requests on a worker pool (trace-major:
 * one producer per trace group, nothing kept between batches),
 * streaming per-run schemaVersion-2 JSON documents back as each run
 * completes.
 *
 *   storemlp_sweepd --port 0 --port-file sweepd.port   # ephemeral
 *   storemlp_sweepd --port 7777 --jobs 8
 *
 * `--port 0` binds an ephemeral port and prints "listening on
 * HOST:PORT" (flushed) so a harness can scrape it; --port-file also
 * writes the bare port number to a file for the same purpose,
 * atomically (write a temporary file, then rename).
 * SIGINT/SIGTERM shut the daemon down cleanly.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "cli_util.hh"
#include "net/sweep_server.hh"

using namespace storemlp;
using namespace storemlp::tools;

namespace
{

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

int
toolMain(int argc, char **argv)
{
    Cli cli(argc, argv, {
        {"host", "ADDR",
         "IPv4 address to bind (default 127.0.0.1)"},
        {"port", "N",
         "TCP port to listen on; 0 picks an ephemeral port\n"
         "(default 0)"},
        {"port-file", "PATH",
         "write the bound port number to PATH once listening"},
        kJobsFlag,
        {"once", "",
         "serve exactly one connection to completion, then exit\n"
         "(for tests and one-shot harnesses)"},
        {"max-conns", "N",
         "exit after serving N connections (0 = serve forever)"},
        {"fault-drop-after", "N",
         "fault-injection test hook: tear down the first submitting\n"
         "connection after N streamed results, as if the server\n"
         "crashed mid-batch"},
    });

    net::SweepServerOptions opts;
    opts.host = cli.str("host", "127.0.0.1");
    uint64_t port = cli.num("port", 0);
    if (port > 65535)
        cli.fail("--port out of range");
    opts.port = static_cast<uint16_t>(port);
    opts.jobs = static_cast<unsigned>(cli.num("jobs", 0));
    opts.maxConnections =
        cli.flag("once") ? 1
                         : static_cast<unsigned>(cli.num("max-conns", 0));
    opts.dropAfterResults =
        static_cast<unsigned>(cli.num("fault-drop-after", 0));

    net::SweepServer server(opts);
    server.start();

    std::cout << "listening on " << opts.host << ":" << server.port()
              << std::endl; // flushed: harnesses scrape this line

    if (cli.has("port-file")) {
        // Write a temporary file beside PATH, then rename it over
        // PATH: a reader sees no file or the whole port, never an
        // empty or partial one.
        std::string path = cli.str("port-file", "");
        std::string tmp = path + ".tmp" + std::to_string(::getpid());
        {
            std::ofstream pf(tmp);
            pf << server.port() << "\n";
            pf.close();
            if (!pf) {
                std::remove(tmp.c_str());
                cli.fail("cannot write --port-file '" + path + "'");
            }
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::remove(tmp.c_str());
            cli.fail("cannot write --port-file '" + path + "'");
        }
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    while (!g_stop.load() && !server.finished())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    server.stop();
    std::cout << "served " << server.connectionsServed()
              << " connection(s)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runTool(argv[0], toolMain, argc, argv);
}
