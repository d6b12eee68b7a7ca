/**
 * @file
 * Declarative command-line parsing shared by the storemlp tools.
 *
 * Each tool declares its flags as a table of FlagSpec entries; the
 * parser validates against the table (unknown flags are rejected),
 * accepts both `--key value` and `--key=value`, and generates the
 * usage text from the table so help stays in sync with what is
 * actually parsed. Flags common to several tools (`--jobs`, `--seed`,
 * `--format`, `--out`, run lengths) are shared constants so spelling
 * and help text are identical everywhere.
 */

#ifndef STOREMLP_TOOLS_CLI_UTIL_HH
#define STOREMLP_TOOLS_CLI_UTIL_HH

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "trace/trace_format.hh"
#include "trace/workload.hh"
#include "util/error.hh"
#include "util/parse.hh"

namespace storemlp::tools
{

/**
 * One command-line flag. `arg` is the value placeholder shown in the
 * usage text; an empty `arg` makes the flag boolean, and an `arg`
 * starting with '[' (e.g. "[=v4]") makes the value optional: the flag
 * may appear bare or as `--key=value`, and never consumes the next
 * argv token. Help text may contain newlines; continuation lines are
 * indented under the help column.
 */
struct FlagSpec
{
    std::string key;  ///< without the leading "--"
    std::string arg;  ///< value placeholder; empty = boolean flag
    std::string help; ///< one-line description
};

// ---- flags shared across tools (identical spelling + help) ----
inline const FlagSpec kSeedFlag{"seed", "N", "RNG seed (default 42)"};
inline const FlagSpec kJobsFlag{
    "jobs", "N",
    "worker threads (default: STOREMLP_JOBS, else hardware "
    "concurrency)"};
inline const FlagSpec kFormatFlag{
    "format", "text|json|csv", "output format (default text)"};
inline const FlagSpec kOutFlag{
    "out", "PATH", "write output to PATH instead of stdout"};
inline const FlagSpec kWarmupFlag{
    "warmup", "N", "warmup instructions (default 600000)"};
inline const FlagSpec kMeasureFlag{
    "measure", "N", "measured instructions (default 1000000)"};
inline const FlagSpec kChunkInstsFlag{
    "chunk-insts", "N",
    "records per chunk, 1.." +
        std::to_string(trace_format::kMaxChunkInstsV4) +
        " (default 65536);\nresults are identical for every chunk size"};

inline const FlagSpec kWorkloadFlag{
    "workload", "NAME",
    "workload profile (default database):\n" + workloadNameList()};

class Cli;
/** --chunk-insts, `def` when absent; exits 2 on 0 or above 2^26. */
inline uint64_t chunkInstsArg(const Cli &cli, uint64_t def = 0);
inline const FlagSpec kModelFlag{
    "model", "NAME|key=val,...",
    "memory model: preset (pc|wc|rmo|wmm|sc) or descriptor\n"
    "key=val list, e.g. pc,coalesce=none (default pc)"};

/** Parsed arguments, validated against a FlagSpec table. */
class Cli
{
  public:
    Cli(int argc, char **argv, std::vector<FlagSpec> flags)
        : _prog(argv[0]), _flags(std::move(flags))
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                std::cout << usage();
                std::exit(0);
            }
            if (arg.rfind("--", 0) != 0)
                fail("unexpected argument '" + arg + "'");
            std::string body = arg.substr(2);
            size_t eq = body.find('=');
            std::string key =
                eq == std::string::npos ? body : body.substr(0, eq);
            const FlagSpec *spec = find(key);
            if (!spec)
                fail("unknown flag '--" + key + "'");
            if (!spec->arg.empty() && spec->arg[0] == '[') {
                // Optional value: bare or --key=value only.
                _args[key] = eq == std::string::npos
                    ? std::string()
                    : body.substr(eq + 1);
            } else if (!spec->arg.empty()) {
                if (eq != std::string::npos) {
                    _args[key] = body.substr(eq + 1);
                } else if (i + 1 < argc) {
                    _args[key] = argv[++i];
                } else {
                    fail("--" + key + " requires a value (" +
                         spec->arg + ")");
                }
            } else {
                if (eq != std::string::npos)
                    fail("--" + key + " does not take a value");
                _args[key] = "1";
            }
        }
    }

    bool has(const std::string &key) const { return _args.count(key); }

    std::string
    str(const std::string &key, const std::string &def) const
    {
        auto it = _args.find(key);
        return it == _args.end() ? def : it->second;
    }

    /**
     * Numeric flag value, strictly validated: `--seed abc` and
     * `--warmup 10k` are usage errors (exit 2), not silent zeros
     * or truncations.
     */
    uint64_t
    num(const std::string &key, uint64_t def) const
    {
        auto it = _args.find(key);
        if (it == _args.end())
            return def;
        std::optional<uint64_t> v = parseU64Strict(it->second);
        if (!v) {
            fail("bad --" + key + " value '" + it->second +
                 "': expected an unsigned decimal integer");
        }
        return *v;
    }

    /** Floating-point flag value, strictly validated like num(). */
    double
    fnum(const std::string &key, double def) const
    {
        auto it = _args.find(key);
        if (it == _args.end())
            return def;
        std::optional<double> v = parseDoubleStrict(it->second);
        if (!v) {
            fail("bad --" + key + " value '" + it->second +
                 "': expected a decimal number");
        }
        return *v;
    }

    bool flag(const std::string &key) const { return has(key); }

    std::string
    usage() const
    {
        std::string out = "usage: " + _prog + " [flags]\n";
        for (const FlagSpec &f : _flags) {
            std::string head = "  --" + f.key;
            if (!f.arg.empty())
                head += f.arg[0] == '[' ? f.arg : " " + f.arg;
            if (head.size() < 24)
                head.append(24 - head.size(), ' ');
            else
                head += "  ";
            out += head;
            for (char c : f.help) {
                out += c;
                if (c == '\n')
                    out.append(24, ' ');
            }
            out += '\n';
        }
        out += "  --help                  show this message\n";
        return out;
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        std::cerr << _prog << ": " << msg << "\n" << usage();
        std::exit(2);
    }

  private:
    const FlagSpec *
    find(const std::string &key) const
    {
        for (const FlagSpec &f : _flags) {
            if (f.key == key)
                return &f;
        }
        return nullptr;
    }

    std::string _prog;
    std::vector<FlagSpec> _flags;
    std::map<std::string, std::string> _args;
};

inline uint64_t
chunkInstsArg(const Cli &cli, uint64_t def)
{
    if (!cli.has("chunk-insts"))
        return def;
    uint64_t n = cli.num("chunk-insts", 0);
    if (n == 0 || n > trace_format::kMaxChunkInstsV4) {
        cli.fail("--chunk-insts " + std::to_string(n) + " outside [1, " +
                 std::to_string(trace_format::kMaxChunkInstsV4) + "]");
    }
    return n;
}

/** --quantum of a multi-core run, 256 when absent; exits 2 on 0. */
inline uint64_t
quantumArg(const Cli &cli)
{
    uint64_t q = cli.num("quantum", 256);
    if (q == 0)
        cli.fail("--quantum must be >= 1");
    return q;
}

/**
 * Run a tool's main body under the simulator error contract: a
 * SimError (bad trace file, bad config, failed run, bad environment
 * variable) exits 1 with a one-line diagnostic; anything else escaping
 * is an internal bug and exits 70 so scripts can tell the two apart.
 * Usage errors exit 2 via Cli::fail before the body ever runs.
 */
inline int
runTool(const char *prog, int (*body)(int, char **), int argc,
        char **argv)
{
    try {
        return body(argc, argv);
    } catch (const SimError &e) {
        std::cerr << prog << ": error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << prog << ": internal error: " << e.what() << "\n";
        return 70;
    }
}

/** Output format selected by the shared --format flag. */
enum class OutFormat
{
    Text,
    Json,
    Csv
};

/** Parse --format (default text). */
inline OutFormat
outFormat(const Cli &cli)
{
    std::string f = cli.str("format", "");
    if (f.empty())
        return OutFormat::Text;
    if (f == "text")
        return OutFormat::Text;
    if (f == "json")
        return OutFormat::Json;
    if (f == "csv")
        return OutFormat::Csv;
    cli.fail("bad --format '" + f + "' (text|json|csv)");
}

/**
 * Destination for the shared --out flag: the named file when given,
 * stdout otherwise. Dying with a clear error on an unopenable path
 * beats a run whose artifact silently went nowhere.
 */
class OutputSink
{
  public:
    explicit OutputSink(const Cli &cli)
    {
        if (cli.has("out")) {
            std::string path = cli.str("out", "");
            _file.open(path);
            if (!_file)
                cli.fail("cannot open --out file '" + path + "'");
        }
    }

    std::ostream &stream()
    {
        return _file.is_open() ? _file : std::cout;
    }

  private:
    std::ofstream _file;
};

/**
 * Shared run-length parsing: --warmup/--measure/--seed with the
 * standard tool defaults (600K / 1M / 42).
 */
inline void
applyRunLengths(const Cli &cli, uint64_t &warmup, uint64_t &measure,
                uint64_t &seed)
{
    warmup = cli.num("warmup", 600 * 1000);
    measure = cli.num("measure", 1000 * 1000);
    seed = cli.num("seed", 42);
}

/** Resolve a workload name to a profile; exits 2 on an unknown name. */
inline WorkloadProfile
workloadByName(const Cli &cli, const std::string &name)
{
    try {
        return workloadProfileForName(name);
    } catch (const ConfigError &e) {
        cli.fail(e.what());
    }
}

/**
 * `--flag VALUE`, when given, sets the SimConfig key `key` through the
 * config table, exactly as a config file line would; a bad value or a
 * violated bound exits 2.
 */
inline void
configFlag(const Cli &cli, SimConfig &cfg, const std::string &flag,
           const char *key)
{
    if (!cli.has(flag))
        return;
    try {
        setSimConfigField(cfg, key, cli.str(flag, ""));
    } catch (const ConfigError &e) {
        cli.fail("--" + flag + ": " + e.what());
    }
}

} // namespace storemlp::tools

#endif // STOREMLP_TOOLS_CLI_UTIL_HH
