/**
 * @file
 * Sweep job API implementation: request (de)serialization, axis
 * expansion, and the schemaVersion-2 per-run artifact envelope.
 */

#include "core/sweep_request.hh"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "core/config_io.hh"
#include "core/sweep.hh"
#include "trace/trace_format.hh"
#include "util/parse.hh"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace storemlp
{

namespace
{

std::string
joinList(const std::vector<std::string> &items, char sep)
{
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += sep;
        out += items[i];
    }
    return out;
}

uint64_t
parseU64Field(const std::string &key, const std::string &value)
{
    std::optional<uint64_t> v = parseU64Strict(value);
    if (!v) {
        throw ConfigError("sweep request: bad integer for '" + key +
                          "': " + value);
    }
    return *v;
}

/** A request's chunk size: 0 (default) or a v4-sized chunk. */
uint64_t
checkedChunkInsts(uint64_t chunk_insts)
{
    if (chunk_insts > trace_format::kMaxChunkInstsV4) {
        throw ConfigError(
            "sweep request: chunkInsts " + std::to_string(chunk_insts) +
            " above " + std::to_string(trace_format::kMaxChunkInstsV4));
    }
    return chunk_insts;
}

void
validateConfigName(const std::string &name)
{
    if (name.empty())
        throw ConfigError("sweep request: empty config name");
    if (name.find_first_of(" \t\r\n[]") != std::string::npos) {
        throw ConfigError("sweep request: config name '" + name +
                          "' contains whitespace or brackets");
    }
}

} // namespace

std::vector<PlannedRun>
expandSweepRuns(const SweepRequest &req)
{
    if (req.configs.empty())
        throw ConfigError("sweep request has no configs");
    if (req.workloads.empty())
        throw ConfigError("sweep request has no workloads");
    checkedChunkInsts(req.chunkInsts);

    // Parse the model axis once; positional names for custom specs so
    // run names never contain a descriptor's commas.
    std::vector<std::pair<std::string, ModelDescriptor>> models;
    for (size_t mi = 0; mi < req.models.size(); ++mi) {
        ModelDescriptor d = ModelDescriptor::parse(req.models[mi]);
        std::string mname = d.name == "custom"
            ? "custom" + std::to_string(mi)
            : d.name;
        models.emplace_back(std::move(mname), std::move(d));
    }

    std::vector<PlannedRun> runs;
    std::unordered_set<std::string> seen;
    for (const std::string &wl : req.workloads) {
        WorkloadProfile profile = workloadProfileForName(wl);
        for (const SweepConfigEntry &entry : req.configs) {
            validateConfigName(entry.name);
            size_t points = models.empty() ? 1 : models.size();
            for (size_t mi = 0; mi < points; ++mi) {
                PlannedRun run;
                run.workload = wl;
                run.configName = entry.name;
                run.name = wl + "_" + entry.name;
                run.spec.profile = profile;
                run.spec.config = entry.config;
                run.spec.config.name = entry.name;
                if (!models.empty()) {
                    run.model = models[mi].first;
                    run.name += "@" + run.model;
                    run.spec.config.memoryModel = models[mi].second;
                }
                run.spec.warmupInsts = req.warmupInsts;
                run.spec.measureInsts = req.measureInsts;
                run.spec.seed = req.seed;
                if (!seen.insert(run.name).second) {
                    throw ConfigError(
                        "sweep request expands to duplicate run '" +
                        run.name + "'");
                }
                runs.push_back(std::move(run));
            }
        }
    }

    if (!req.runFilter.empty()) {
        std::unordered_set<std::string> wanted(req.runFilter.begin(),
                                               req.runFilter.end());
        std::vector<PlannedRun> filtered;
        for (PlannedRun &run : runs) {
            if (wanted.erase(run.name))
                filtered.push_back(std::move(run));
        }
        if (!wanted.empty()) {
            throw ConfigError("sweep request run filter names unknown "
                              "run '" + *wanted.begin() + "'");
        }
        runs = std::move(filtered);
    }
    return runs;
}

void
applyRequestOptions(SweepOptions &opts, const SweepRequest &req)
{
    opts.maxAttempts = 1 + req.retries;
    opts.chunkInsts = req.chunkInsts;
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

void
saveSweepRequest(std::ostream &os, const SweepRequest &req)
{
    os << "# storemlp sweep request\n";
    os << "workloads = " << joinList(req.workloads, ',') << "\n";
    if (!req.models.empty())
        os << "models = " << joinList(req.models, ';') << "\n";
    os << "warmup = " << req.warmupInsts << "\n";
    os << "measure = " << req.measureInsts << "\n";
    os << "seed = " << req.seed << "\n";
    os << "retries = " << req.retries << "\n";
    os << "streaming = " << (req.streaming ? "true" : "false") << "\n";
    os << "chunkInsts = " << req.chunkInsts << "\n";
    if (!req.runFilter.empty())
        os << "runs = " << joinList(req.runFilter, ';') << "\n";
    for (const SweepConfigEntry &entry : req.configs) {
        validateConfigName(entry.name);
        os << "[config " << entry.name << "]\n";
        saveSimConfig(os, entry.config);
        os << "[endconfig]\n";
    }
}

std::string
sweepRequestToText(const SweepRequest &req)
{
    std::ostringstream oss;
    saveSweepRequest(oss, req);
    return oss.str();
}

SweepRequest
loadSweepRequest(std::istream &is)
{
    SweepRequest req;
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trimmed(line);
        if (t.empty() || t[0] == '#')
            continue;

        if (t.rfind("[config ", 0) == 0) {
            if (t.back() != ']') {
                throw ConfigError("sweep request line " +
                                  std::to_string(lineno) +
                                  ": malformed config header '" + t +
                                  "'");
            }
            SweepConfigEntry entry;
            entry.name = trimmed(t.substr(8, t.size() - 9));
            validateConfigName(entry.name);
            std::ostringstream body;
            bool closed = false;
            while (std::getline(is, line)) {
                ++lineno;
                if (trimmed(line) == "[endconfig]") {
                    closed = true;
                    break;
                }
                body << line << "\n";
            }
            if (!closed) {
                throw ConfigError("sweep request: config '" +
                                  entry.name +
                                  "' not closed by [endconfig]");
            }
            std::istringstream body_is(body.str());
            entry.config = loadSimConfig(body_is);
            req.configs.push_back(std::move(entry));
            continue;
        }

        size_t eq = t.find('=');
        if (eq == std::string::npos) {
            throw ConfigError("sweep request line " +
                              std::to_string(lineno) +
                              ": expected key = value, got '" + t +
                              "'");
        }
        std::string key = trimmed(t.substr(0, eq));
        std::string value = trimmed(t.substr(eq + 1));
        if (key == "workloads") {
            req.workloads = splitList(value, ',');
        } else if (key == "models") {
            req.models = splitList(value, ';');
        } else if (key == "warmup") {
            req.warmupInsts = parseU64Field(key, value);
        } else if (key == "measure") {
            req.measureInsts = parseU64Field(key, value);
        } else if (key == "seed") {
            req.seed = parseU64Field(key, value);
        } else if (key == "retries") {
            req.retries =
                static_cast<unsigned>(parseU64Field(key, value));
        } else if (key == "streaming") {
            if (value == "true" || value == "1")
                req.streaming = true;
            else if (value == "false" || value == "0")
                req.streaming = false;
            else
                throw ConfigError(
                    "sweep request: bad boolean for 'streaming': " +
                    value);
        } else if (key == "chunkInsts") {
            req.chunkInsts = checkedChunkInsts(parseU64Field(key, value));
        } else if (key == "runs") {
            req.runFilter = splitList(value, ';');
        } else {
            throw ConfigError("sweep request line " +
                              std::to_string(lineno) +
                              ": unknown key '" + key + "'");
        }
    }
    return req;
}

SweepRequest
sweepRequestFromText(const std::string &text)
{
    std::istringstream is(text);
    return loadSweepRequest(is);
}

std::string
sweepRequestFingerprint(const SweepRequest &req)
{
    SweepRequest canonical = req;
    canonical.runFilter.clear();
    std::string text = sweepRequestToText(canonical);
    uint64_t h = 1469598103934665603ull; // FNV-1a 64
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------
// Result artifacts
// ---------------------------------------------------------------------

std::string
localHostName()
{
#ifndef _WIN32
    char buf[256] = {0};
    if (gethostname(buf, sizeof buf - 1) == 0 && buf[0])
        return buf;
#endif
    return "unknown";
}

StatsEnvelope
runOutcomeEnvelope(const RunOutcome &outcome, const ArtifactSource &src,
                   uint64_t seed, uint64_t warmup, uint64_t measure)
{
    StatsEnvelope env;
    env.meta = {{"tool", src.tool}, {"kind", "run"}};
    if (!outcome.ok)
        env.meta.push_back({"error", outcome.errorMessage});

    env.source = {{"host", src.host},
                  {"tool", src.tool},
                  {"request", src.requestFingerprint}};

    env.run = {{"name", outcome.name},
               {"workload", outcome.workload},
               {"config", outcome.configName}};
    if (!outcome.model.empty())
        env.run.push_back({"model", outcome.model});
    env.run.push_back({"seed", std::to_string(seed)});
    env.run.push_back({"warmup", std::to_string(warmup)});
    env.run.push_back({"measure", std::to_string(measure)});
    env.run.push_back({"ok", outcome.ok ? "1" : "0"});
    env.run.push_back({"attempts", std::to_string(outcome.attempts)});
    env.run.push_back({"wallMs", jsonDouble(outcome.wallMs)});
    return env;
}

std::string
runOutcomeJson(const RunOutcome &outcome, const ArtifactSource &src,
               uint64_t seed, uint64_t warmup, uint64_t measure)
{
    StatsEnvelope env =
        runOutcomeEnvelope(outcome, src, seed, warmup, measure);
    StatsRegistry reg;
    if (outcome.ok)
        outcome.output.exportStats(reg);
    std::ostringstream oss;
    writeStatsJson(oss, reg, env, /*pretty=*/false);
    return oss.str();
}

} // namespace storemlp
