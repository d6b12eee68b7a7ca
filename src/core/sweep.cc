/**
 * @file
 * Sweep engine implementation.
 */

#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "trace/lock_detector.hh"
#include "util/parallel.hh"
#include "util/parse.hh"

#ifdef _WIN32
#include <io.h>
#define STOREMLP_ISATTY(fd) _isatty(fd)
#else
#include <unistd.h>
#define STOREMLP_ISATTY(fd) isatty(fd)
#endif

namespace storemlp
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * One producer's chunks, fanned out to the members of a trace group.
 * Each chunk is made once (lanes derived with it), handed to every
 * member that asks for it, and dropped from the buffer once every
 * live member has fetched it. A production error is kept and
 * rethrown to every member that asks for that chunk or a later one.
 * The members run on one thread, so nothing here is locked.
 *
 * With a lock-analysis builder, every chunk made is fed to it, and a
 * chunk is handed out only once the builder covers it: production
 * runs a lock-detector window ahead, and SLE/TM members read the
 * batch analysis without a pass of its own.
 */
class ChunkFanout
{
  public:
    ChunkFanout(std::unique_ptr<TraceSource> producer, size_t members,
                LockAnalysisBuilder *locks)
        : _producer(std::move(producer)), _locks(locks), _next(members, 0)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(size_t member, uint64_t chunk_idx)
    {
        if (chunk_idx < _base) {
            throw std::logic_error(
                "trace group: chunk " + std::to_string(chunk_idx) +
                " fetched again after every member passed it");
        }
        while (produced() <= chunk_idx && !_ended)
            produceNext();
        if (chunk_idx >= produced())
            return nullptr;
        uint64_t end = (chunk_idx + 1) * _producer->chunkInsts();
        while (_locks && !_locks->analysis().covers(end))
            produceNext();
        std::shared_ptr<const TraceChunk> c = _buf[chunk_idx - _base];
        _next[member] = std::max(_next[member], chunk_idx + 1);
        dropFetched();
        return c;
    }

    /** The member fetches no more, so it holds no chunk back. */
    void
    release(size_t member)
    {
        _next[member] = kReleased;
        dropFetched();
    }

    const TraceSource &producer() const { return *_producer; }
    /** Chunks made so far. */
    uint64_t produced() const { return _base + _buf.size(); }
    /** Wall time spent making them. */
    double produceMs() const { return _produceMs; }

  private:
    static constexpr uint64_t kReleased = ~uint64_t{0};

    void
    produceNext()
    {
        if (_error)
            std::rethrow_exception(_error);
        Clock::time_point t0 = Clock::now();
        try {
            std::shared_ptr<const TraceChunk> c =
                _producer->fetch(produced());
            if (c) {
                c->lanes();
                if (_locks)
                    _locks->push(*c);
                _buf.push_back(std::move(c));
            } else {
                _ended = true;
                if (_locks)
                    _locks->finish();
            }
        } catch (...) {
            _error = std::current_exception();
            _produceMs += msSince(t0);
            throw;
        }
        _produceMs += msSince(t0);
    }

    void
    dropFetched()
    {
        uint64_t low = *std::min_element(_next.begin(), _next.end());
        while (!_buf.empty() && _base < low) {
            _buf.pop_front();
            ++_base;
        }
    }

    std::unique_ptr<TraceSource> _producer;
    LockAnalysisBuilder *_locks;
    uint64_t _base = 0;
    std::vector<uint64_t> _next; ///< per member: first unfetched chunk
    std::deque<std::shared_ptr<const TraceChunk>> _buf; ///< from _base
    bool _ended = false;
    std::exception_ptr _error;
    double _produceMs = 0.0;
};

/** One member's view of a ChunkFanout. */
class FanoutMember : public TraceSource
{
  public:
    FanoutMember(ChunkFanout &fan, size_t member)
        : TraceSource(fan.producer().chunkInsts()), _fan(fan),
          _member(member)
    {
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        return _fan.fetch(_member, chunk_idx);
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _fan.producer().knownSize();
    }
    std::string fingerprint() const override
    {
        return _fan.producer().fingerprint();
    }

  private:
    ChunkFanout &_fan;
    size_t _member;
};

/** Everything that determines a generated stream's records. */
std::string
streamKey(const SourceSpec &s)
{
    return s.profile.cacheKey() + "|seed=" + std::to_string(s.seed) +
        "|n=" + std::to_string(s.count) + "|wc=" +
        (s.wcRewrite ? "1" : "0");
}

std::string
currentError()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

/**
 * For each run, the first run that simulates the same machine: specs
 * equal apart from display names (the config's name, and the memory
 * model's, whose rules still compare). A run that is its own primary
 * simulates; the others take its outcome. Equal specs read one
 * stream, so a run is compared with the primaries of its stream
 * alone. Under a runOverride hook every run is its own primary, so
 * the hook sees each one.
 */
std::vector<size_t>
primaryRuns(const std::vector<PlannedRun> &runs, bool share)
{
    std::vector<size_t> primary(runs.size());
    std::unordered_map<std::string, std::vector<std::pair<RunSpec, size_t>>>
        firsts; // stream key -> (machine, run) per primary
    for (size_t i = 0; i < runs.size(); ++i) {
        primary[i] = i;
        if (!share)
            continue;
        RunSpec machine = runs[i].spec;
        machine.config.name.clear();
        machine.config.memoryModel.name.clear();
        auto &same_stream = firsts[streamKey(SourceSpec::forRun(machine))];
        auto it = std::find_if(same_stream.begin(), same_stream.end(),
                               [&](const auto &f) {
                                   return f.first == machine;
                               });
        if (it != same_stream.end())
            primary[i] = it->second;
        else
            same_stream.emplace_back(std::move(machine), i);
    }
    return primary;
}

/** Runs that read one stream, executed together on one worker. */
struct TraceGroup
{
    SourceSpec source;
    std::vector<size_t> members; ///< batch indices, ascending
};

/** A member's first attempt, as its group's pass left it. */
struct MemberRun
{
    RunOutput output;
    bool ok = false;
    std::string error; ///< when !ok
    double ms = 0.0;   ///< its own slices
};

/**
 * Group the batch's primary runs by stream, then split groups while
 * there are fewer of them than workers: each step gives one more part
 * to the group whose parts are largest. Largest groups come first; a
 * group costs its producer plus one simulation per member (each
 * member a distinct simulation).
 */
std::vector<TraceGroup>
planGroups(const std::vector<PlannedRun> &runs,
           const std::vector<size_t> &primary, uint64_t chunk_insts,
           unsigned workers)
{
    std::vector<TraceGroup> groups;
    std::unordered_map<std::string, size_t> by_key;
    for (size_t i = 0; i < runs.size(); ++i) {
        if (primary[i] != i)
            continue;
        SourceSpec src = SourceSpec::forRun(runs[i].spec, chunk_insts);
        auto [it, fresh] = by_key.emplace(streamKey(src), groups.size());
        if (fresh)
            groups.push_back({std::move(src), {}});
        groups[it->second].members.push_back(i);
    }

    std::vector<size_t> parts(groups.size(), 1);
    for (size_t total = groups.size(); total < workers; ++total) {
        size_t best = groups.size();
        size_t best_part = 1;
        for (size_t g = 0; g < groups.size(); ++g) {
            size_t n = groups[g].members.size();
            size_t part = (n + parts[g] - 1) / parts[g];
            if (part > best_part) {
                best = g;
                best_part = part;
            }
        }
        if (best == groups.size())
            break; // every part is one run
        ++parts[best];
    }

    std::vector<TraceGroup> tasks;
    for (size_t g = 0; g < groups.size(); ++g) {
        const std::vector<size_t> &m = groups[g].members;
        for (size_t p = 0; p < parts[g]; ++p) {
            TraceGroup part{groups[g].source, {}};
            for (size_t j = p; j < m.size(); j += parts[g])
                part.members.push_back(m[j]);
            tasks.push_back(std::move(part));
        }
    }
    auto cost = [](const TraceGroup &g) {
        return static_cast<double>(g.source.count) *
            static_cast<double>(g.members.size() + 1);
    };
    std::stable_sort(tasks.begin(), tasks.end(),
                     [&](const TraceGroup &a, const TraceGroup &b) {
                         return cost(a) > cost(b);
                     });
    return tasks;
}

/**
 * A trace group's first attempts, trace-major: one producer, one
 * session per member, and the members advancing round-robin, one
 * chunk per round, so every member reaches a chunk boundary before any
 * goes past it. SLE/TM members share one lock analysis, built from the
 * chunks as they are made. `produced` gets the chunks the producer
 * made.
 */
std::vector<MemberRun>
runGroup(const TraceGroup &group, const std::vector<PlannedRun> &batch,
         uint64_t &produced)
{
    size_t n = group.members.size();
    std::vector<MemberRun> members(n);
    std::vector<bool> reads_locks;
    for (size_t i : group.members) {
        reads_locks.push_back(
            Runner::needsLockAnalysis(batch[i].spec.config));
    }
    std::optional<LockAnalysisBuilder> locks;
    if (std::find(reads_locks.begin(), reads_locks.end(), true) !=
        reads_locks.end())
        locks.emplace();
    // A producer that cannot open fails every member with its error.
    std::unique_ptr<ChunkFanout> fan;
    try {
        fan = std::make_unique<ChunkFanout>(openRunSource(group.source), n,
                                            locks ? &*locks : nullptr);
    } catch (...) {
        std::string err = currentError();
        for (MemberRun &m : members)
            m.error = err;
        return members;
    }
    std::vector<std::unique_ptr<FanoutMember>> sources(n);
    std::vector<std::unique_ptr<Runner::Session>> sessions(n);
    // One member's slice: its own work, less any chunk it made for the
    // group. A throwing member fails alone and stops holding chunks.
    auto slice = [&](size_t k, auto &&work) {
        Clock::time_point t0 = Clock::now();
        double made0 = fan->produceMs();
        try {
            work();
        } catch (...) {
            members[k].error = currentError();
            sessions[k].reset();
            fan->release(k);
        }
        members[k].ms += msSince(t0) - (fan->produceMs() - made0);
    };
    for (size_t k = 0; k < n; ++k) {
        slice(k, [&] {
            sources[k] = std::make_unique<FanoutMember>(*fan, k);
            sessions[k] = std::make_unique<Runner::Session>(
                batch[group.members[k]].spec, *sources[k],
                reads_locks[k] ? &locks->analysis() : nullptr);
        });
    }
    uint64_t chunk = fan->producer().chunkInsts();
    for (uint64_t end = chunk;
         std::any_of(sessions.begin(), sessions.end(),
                     [](const auto &s) { return s != nullptr; });
         end += chunk) {
        for (size_t k = 0; k < n; ++k) {
            if (!sessions[k])
                continue;
            slice(k, [&] {
                if (sessions[k]->advance(end))
                    return;
                members[k].output = sessions[k]->finish();
                members[k].ok = true;
                sessions[k].reset();
                fan->release(k);
            });
        }
    }
    produced = fan->produced();
    return members;
}

} // namespace

bool
SweepOptions::progressFromEnv()
{
    if (const char *env = std::getenv("STOREMLP_PROGRESS"))
        return env[0] && env[0] != '0';
    return STOREMLP_ISATTY(2) != 0;
}

unsigned
SweepEngine::defaultJobs()
{
    // Strict: a malformed or zero STOREMLP_JOBS raises ConfigError
    // instead of silently running serial (or with garbage-as-0).
    uint64_t v = envU64Strict("STOREMLP_JOBS", 0, 1, 4096);
    if (v >= 1)
        return static_cast<unsigned>(v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepEngine::SweepEngine(SweepOptions opts, TraceCache *)
    : _opts(std::move(opts))
{
}

RunOutput
SweepEngine::runOnce(const RunSpec &spec, const SweepOptions &opts)
{
    if (opts.runOverride)
        return opts.runOverride(spec);
    std::unique_ptr<TraceSource> src =
        openRunSource(SourceSpec::forRun(spec, opts.chunkInsts));
    return Runner::run(spec, *src);
}

std::vector<RunOutcome>
SweepEngine::executeWith(const SweepOptions &opts,
                         const std::vector<PlannedRun> &runs,
                         const RunObserver &observer)
{
    std::vector<RunOutcome> results(runs.size());
    if (runs.empty())
        return results;

    unsigned workers = _opts.jobs ? _opts.jobs : defaultJobs();
    std::vector<size_t> primary = primaryRuns(runs, !opts.runOverride);
    std::vector<std::vector<size_t>> sharers(runs.size());
    size_t simulations = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
        sharers[primary[i]].push_back(i); // the primary first
        simulations += primary[i] == i;
    }
    _simulations.fetch_add(simulations);
    std::vector<TraceGroup> groups =
        planGroups(runs, primary, opts.chunkInsts, workers);
    unsigned jobs = static_cast<unsigned>(
        std::min<size_t>(workers, groups.size()));
    unsigned max_attempts = std::max(1u, opts.maxAttempts);
    std::atomic<size_t> done{0};
    std::atomic<size_t> sims_done{0};
    std::atomic<size_t> groups_done{0};
    std::atomic<uint64_t> failed{0};
    std::mutex sink_mu; // serializes observer calls + progress line
    Clock::time_point t0 = Clock::now();

    // Settle simulation i: retry a failed first attempt alone, then
    // record the final outcome for every run sharing it, in index
    // order, each under its own identity, and report each.
    auto settle = [&](size_t i, MemberRun &m) {
        unsigned attempts = 1;
        while (!m.ok && attempts < max_attempts) {
            ++attempts;
            _runRetries.fetch_add(1);
            Clock::time_point rt0 = Clock::now();
            try {
                m.output = runOnce(runs[i].spec, opts);
                m.ok = true;
            } catch (...) {
                m.error = currentError();
            }
            m.ms += msSince(rt0);
        }
        sims_done.fetch_add(1);
        const std::vector<size_t> &same = sharers[i];
        for (size_t k = 0; k < same.size(); ++k) {
            size_t j = same[k];
            const PlannedRun &run = runs[j];
            RunOutcome &res = results[j];
            res.name = run.name;
            res.workload = run.workload;
            res.configName = run.configName;
            res.model = run.model;
            res.attempts = attempts;
            res.ok = m.ok;
            // The simulation's time is billed to its primary alone.
            res.wallMs = j == i ? m.ms : 0.0;
            if (res.ok) {
                res.output = k + 1 == same.size() ? std::move(m.output)
                                                  : m.output;
                res.errorMessage.clear();
                _runsOk.fetch_add(1);
            } else {
                res.output = RunOutput{};
                res.errorMessage =
                    RunError(j, run.spec.config.name, m.error).what();
                _runsFailed.fetch_add(1);
                failed.fetch_add(1);
            }
            size_t d = done.fetch_add(1) + 1;
            if (!observer && !opts.progress)
                continue;
            std::lock_guard<std::mutex> lk(sink_mu);
            // The observer must never fault the run it reports:
            // a throwing result sink (e.g. a dead network
            // connection) is the sink's problem, and the batch
            // still completes with every slot filled.
            if (observer) {
                try {
                    observer(res, d, runs.size());
                } catch (...) {
                }
            }
            if (opts.progress) {
                std::fprintf(
                    stderr,
                    "\r[sweep] %zu/%zu runs, %zu/%zu simulations, "
                    "%zu/%zu trace groups, %llu failed, %.1fs elapsed ",
                    d, runs.size(), sims_done.load(), simulations,
                    groups_done.load(), groups.size(),
                    static_cast<unsigned long long>(failed.load()),
                    msSince(t0) / 1000.0);
                std::fflush(stderr);
            }
        }
    };

    // One task per group (or planned subgroup), run from start to end
    // by the worker that takes it.
    auto run_group = [&](const TraceGroup &group) {
        if (opts.runOverride) {
            for (size_t i : group.members) {
                MemberRun m;
                Clock::time_point rt0 = Clock::now();
                try {
                    m.output = runOnce(runs[i].spec, opts);
                    m.ok = true;
                } catch (...) {
                    m.error = currentError();
                }
                m.ms = msSince(rt0);
                settle(i, m);
            }
            _traceGroups.fetch_add(1);
            groups_done.fetch_add(1);
            return;
        }
        uint64_t produced = 0;
        std::vector<MemberRun> members = runGroup(group, runs, produced);
        _traceGroups.fetch_add(1);
        _traceChunks.fetch_add(produced);
        groups_done.fetch_add(1);
        for (size_t k = 0; k < members.size(); ++k)
            settle(group.members[k], members[k]);
    };
    std::vector<std::function<void()>> tasks;
    tasks.reserve(groups.size());
    for (const TraceGroup &group : groups)
        tasks.push_back([&run_group, &group] { run_group(group); });
    for (const TaskStatus &status : parallelForEach(tasks, jobs)) {
        // A task contains its runs' faults; one that escapes would
        // leave result slots unfilled.
        if (!status.ok)
            throw std::logic_error("sweep: " + status.errorMessage);
    }

    if (opts.progress) {
        std::fprintf(stderr,
                     "\r[sweep] %zu runs done in %.1fs (%u jobs, %zu "
                     "simulations, %zu trace groups, %llu failed)   \n",
                     runs.size(), msSince(t0) / 1000.0, jobs,
                     simulations, groups.size(),
                     static_cast<unsigned long long>(failed.load()));
        std::fflush(stderr);
    }
    return results;
}

std::vector<RunOutcome>
SweepEngine::execute(const std::vector<PlannedRun> &runs,
                     const RunObserver &observer)
{
    return executeWith(_opts, runs, observer);
}

std::vector<RunOutcome>
SweepEngine::execute(const SweepRequest &request,
                     const RunObserver &observer)
{
    // Expansion failures (bad workload/model/filter) surface before
    // any run starts: a malformed request is the submitter's error,
    // not a batch of failed runs.
    std::vector<PlannedRun> runs = expandSweepRuns(request);
    SweepOptions opts = _opts;
    applyRequestOptions(opts, request);
    _lastMaxAttempts.store(std::max(1u, opts.maxAttempts));
    return executeWith(opts, runs, observer);
}

void
SweepEngine::exportStats(StatsRegistry &reg) const
{
    reg.counter("sweep.simulations", _simulations.load());
    reg.counter("sweep.traceGroups", _traceGroups.load());
    reg.counter("sweep.traceChunksProduced", _traceChunks.load());
    reg.counter("sweep.jobs", _opts.jobs ? _opts.jobs : defaultJobs());
    // How the batch was produced: attempts budget per run (request
    // retries override the engine default and are recorded by
    // execute()), so artifacts carry their own retry policy.
    unsigned attempts = _lastMaxAttempts.load();
    reg.counter("sweep.maxAttempts",
                attempts ? attempts : std::max(1u, _opts.maxAttempts));
    reg.counter("sweep.runs.ok", _runsOk.load());
    reg.counter("sweep.runs.failed", _runsFailed.load());
    reg.counter("sweep.runs.retries", _runRetries.load());
}

std::vector<TaskStatus>
parallelForEach(const std::vector<std::function<void()>> &tasks,
                unsigned jobs)
{
    std::vector<TaskStatus> statuses(tasks.size());
    if (tasks.empty())
        return statuses;
    if (!jobs)
        jobs = SweepEngine::defaultJobs();
    if (tasks.size() < jobs)
        jobs = static_cast<unsigned>(tasks.size());
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        size_t i;
        while ((i = next.fetch_add(1)) < tasks.size()) {
            // Same containment as execute(): a throwing task fails
            // its own status slot; the remaining tasks still execute.
            try {
                tasks[i]();
            } catch (const std::exception &e) {
                statuses[i].ok = false;
                statuses[i].errorMessage =
                    RunError(i, "", e.what()).what();
            } catch (...) {
                statuses[i].ok = false;
                statuses[i].errorMessage =
                    RunError(i, "", "unknown exception").what();
            }
        }
    };
    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t) {
            pool.emplace_back([&worker] {
                ParallelWorkerScope scope;
                worker();
            });
        }
        for (auto &t : pool)
            t.join();
    }
    return statuses;
}

} // namespace storemlp
