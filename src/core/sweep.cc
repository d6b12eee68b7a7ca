/**
 * @file
 * Sweep engine implementation.
 */

#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
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
    /**
     * `next[k]` is the first chunk member k has not fetched: 0 for a
     * fresh group, later for members handed over mid-stream. The
     * producer's first fetch skips to the lowest of them.
     */
    ChunkFanout(std::unique_ptr<TraceSource> producer,
                std::vector<uint64_t> next, LockAnalysisBuilder *locks)
        : _producer(std::move(producer)), _locks(locks),
          _base(*std::min_element(next.begin(), next.end())),
          _next(std::move(next))
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
        while (_locks && !_locks->covers(end))
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

    /** First chunk `member` has not fetched. */
    uint64_t next(size_t member) const { return _next[member]; }
    const TraceSource &producer() const { return *_producer; }
    /** Chunks made so far (skipped ones included). */
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
                if (_locks) {
                    for (uint64_t i = 0; i < c->count; ++i)
                        _locks->push(c->data[i]);
                }
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
    uint64_t _base;
    std::vector<uint64_t> _next; ///< per member: first unfetched chunk
    std::deque<std::shared_ptr<const TraceChunk>> _buf; ///< from _base
    bool _ended = false;
    std::exception_ptr _error;
    double _produceMs = 0.0;
};

/**
 * One member's view of a ChunkFanout. A member handed to another
 * worker moves to that worker's fanout.
 */
class FanoutMember : public TraceSource
{
  public:
    FanoutMember(ChunkFanout &fan, size_t member)
        : TraceSource(fan.producer().chunkInsts()), _fan(&fan),
          _member(member)
    {
    }

    void
    moveTo(ChunkFanout &fan, size_t member)
    {
        _fan = &fan;
        _member = member;
    }

    std::shared_ptr<const TraceChunk>
    fetch(uint64_t chunk_idx) override
    {
        return _fan->fetch(_member, chunk_idx);
    }
    std::optional<uint64_t> knownSize() const override
    {
        return _fan->producer().knownSize();
    }
    std::string fingerprint() const override
    {
        return _fan->producer().fingerprint();
    }

  private:
    ChunkFanout *_fan;
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
 * Group the batch by stream, then split groups while there are fewer
 * of them than workers: each step gives one more part to the group
 * whose parts are largest. Largest groups come first; a group costs
 * its producer plus one simulation per member.
 */
std::vector<TraceGroup>
planGroups(const std::vector<PlannedRun> &runs, uint64_t chunk_insts,
           unsigned workers)
{
    std::vector<TraceGroup> groups;
    std::unordered_map<std::string, size_t> by_key;
    for (size_t i = 0; i < runs.size(); ++i) {
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

struct Door;

/**
 * The sessions of a trace group, or of members handed over from one,
 * and the fanout they read: the first attempt of every member,
 * trace-major. The members advance round-robin, one chunk per round.
 */
class GroupRun
{
  public:
    /** A planned group: open its producer, build every machine. */
    GroupRun(const TraceGroup &group, const std::vector<PlannedRun> &batch)
        : runs(group.members), members(runs.size()), _source(group.source),
          _sources(runs.size()), _sessions(runs.size()),
          _handed(runs.size(), false)
    {
        for (size_t i : runs) {
            _readsLocks.push_back(
                Runner::needsLockAnalysis(batch[i].spec.config));
        }
        // SLE/TM members share one lock analysis, built from the
        // chunks as they are made.
        if (std::find(_readsLocks.begin(), _readsLocks.end(), true) !=
            _readsLocks.end())
            _locks.emplace();
        if (!open(std::vector<uint64_t>(runs.size(), 0)))
            return;
        for (size_t k = 0; k < runs.size(); ++k) {
            slice(k, [&] {
                _sources[k] = std::make_unique<FanoutMember>(*_fan, k);
                _sessions[k] = std::make_unique<Runner::Session>(
                    batch[runs[k]].spec, *_sources[k],
                    _readsLocks[k] ? &_locks->analysis() : nullptr);
            });
        }
    }

    /**
     * Advance every member to the end of the stream (or its failure),
     * answering `door` at each round boundary.
     */
    void drive(Door &door);

    /** Chunks this run's producer made. */
    uint64_t produced() const { return _fan ? _fan->produced() : 0; }
    /** Whether member k was handed to another worker. */
    bool handed(size_t k) const { return _handed[k]; }

    std::vector<size_t> runs;       ///< batch index per member
    std::vector<MemberRun> members; ///< first attempt per member

  private:
    GroupRun() = default;

    /**
     * Open the producer with member k at chunk next[k]. If that
     * throws, every member fails with the error.
     */
    bool
    open(std::vector<uint64_t> next)
    {
        try {
            _fan = std::make_unique<ChunkFanout>(
                openRunSource(_source), std::move(next),
                _locks ? &*_locks : nullptr);
            _chunk = _fan->producer().chunkInsts();
            return true;
        } catch (...) {
            std::string err = currentError();
            for (size_t k = 0; k < runs.size(); ++k) {
                members[k].error = err;
                _sessions[k].reset();
            }
            return false;
        }
    }

    /**
     * One member's slice: its own work, less any chunk it made for
     * the group. A throwing member fails alone and stops holding
     * chunks.
     */
    template <typename Work>
    void
    slice(size_t k, Work &&work)
    {
        Clock::time_point t0 = Clock::now();
        double made0 = _fan->produceMs();
        try {
            work();
        } catch (...) {
            members[k].error = currentError();
            _sessions[k].reset();
            _fan->release(k);
        }
        members[k].ms += msSince(t0) - (_fan->produceMs() - made0);
    }

    /** Members that can change workers: active, reading no locks. */
    size_t
    movable() const
    {
        size_t n = 0;
        for (size_t k = 0; k < runs.size(); ++k)
            n += _sessions[k] && !_readsLocks[k];
        return n;
    }

    /**
     * Hand `count` movable members over, at this round boundary, to a
     * run of their own; it opens a producer when first driven.
     */
    std::unique_ptr<GroupRun> split(size_t count);
    void answer(Door &door);

    SourceSpec _source;
    std::optional<LockAnalysisBuilder> _locks;
    std::unique_ptr<ChunkFanout> _fan;
    uint64_t _chunk = 0;
    uint64_t _end = 0; ///< round boundary every member has reached
    std::vector<std::unique_ptr<FanoutMember>> _sources;
    std::vector<std::unique_ptr<Runner::Session>> _sessions;
    std::vector<bool> _readsLocks;
    std::vector<bool> _handed;
    std::vector<uint64_t> _next; ///< handed-over run: start chunks
};

/**
 * Where an idle worker asks a running group for members. At each
 * round boundary the owner publishes how many members it could hand
 * over; if a worker is waiting, it hands over half of them. Members
 * that read the group's lock analysis stay with the owner, whose
 * producer builds it.
 */
struct Door
{
    std::mutex mu;
    std::condition_variable cv;
    size_t offer = 0;      ///< movable members; 0 if a handover would not pay
    bool answered = false; ///< `offer` was published at least once
    bool asked = false;    ///< a worker waits for a handoff
    bool closed = false;   ///< the owner's rounds are over
    std::unique_ptr<GroupRun> handed;
};

std::unique_ptr<GroupRun>
GroupRun::split(size_t count)
{
    std::unique_ptr<GroupRun> part(new GroupRun);
    part->_source = _source;
    part->_end = _end;
    for (size_t k = runs.size(); k-- > 0 && count;) {
        if (!_sessions[k] || _readsLocks[k])
            continue;
        part->runs.push_back(runs[k]);
        part->members.push_back(std::move(members[k]));
        part->_sources.push_back(std::move(_sources[k]));
        part->_sessions.push_back(std::move(_sessions[k]));
        part->_readsLocks.push_back(false);
        part->_handed.push_back(false);
        part->_next.push_back(_fan->next(k));
        _handed[k] = true;
        _fan->release(k);
        --count;
    }
    return part;
}

void
GroupRun::answer(Door &door)
{
    // The taker's producer makes the `done` chunks again before it
    // reaches the members, at about one member's cost per chunk. Half
    // of `can` members leave; the other half stay for `left` chunks.
    // Offer only while that detour is shorter than the work that stays.
    size_t can = movable();
    uint64_t done = _end / _chunk;
    uint64_t total = (_source.count + _chunk - 1) / _chunk;
    uint64_t left = total > done ? total - done : 0;
    bool pays = can >= 2 && done < (can - can / 2) * left;
    std::lock_guard<std::mutex> lk(door.mu);
    door.offer = pays ? can : 0;
    door.answered = true;
    if (door.asked && !door.handed) {
        if (door.offer)
            door.handed = split(can / 2);
        door.cv.notify_all(); // a refusal (offer 0) wakes the asker too
    }
}

void
GroupRun::drive(Door &door)
{
    // Handed over: a producer of its own, skipping to the members'.
    if (!_fan && !_next.empty() && open(_next)) {
        for (size_t k = 0; k < runs.size(); ++k)
            _sources[k]->moveTo(*_fan, k);
    }
    // Round-robin, one chunk at a time: every member reaches a chunk
    // boundary before any goes past it.
    for (bool active = _fan != nullptr; active;) {
        answer(door);
        active = false;
        _end += _chunk;
        for (size_t k = 0; k < runs.size(); ++k) {
            if (!_sessions[k])
                continue;
            active = true;
            slice(k, [&] {
                if (_sessions[k]->advance(_end))
                    return;
                members[k].output = _sessions[k]->finish();
                members[k].ok = true;
                _sessions[k].reset();
                _fan->release(k);
            });
        }
    }
    std::lock_guard<std::mutex> lk(door.mu);
    door.closed = true;
    door.offer = 0;
    door.cv.notify_all();
}

/** The doors of the groups running on a pool's workers. */
class DoorRegistry
{
  public:
    std::shared_ptr<Door>
    enter()
    {
        auto door = std::make_shared<Door>();
        std::lock_guard<std::mutex> lk(_mu);
        _doors.push_back(door);
        return door;
    }

    void
    leave(const std::shared_ptr<Door> &door)
    {
        std::lock_guard<std::mutex> lk(_mu);
        _doors.erase(std::find(_doors.begin(), _doors.end(), door));
    }

    /**
     * Members handed over by the running group with the most to
     * offer, or by one still building its machines; null once no
     * group offers any. Waits at most for one round of that group.
     */
    std::unique_ptr<GroupRun>
    take()
    {
        for (;;) {
            std::shared_ptr<Door> best;
            {
                std::lock_guard<std::mutex> lk(_mu);
                size_t most = 0;
                for (const std::shared_ptr<Door> &d : _doors) {
                    std::lock_guard<std::mutex> dl(d->mu);
                    size_t offer = d->answered ? d->offer : 1;
                    if (!d->asked && !d->closed && offer > most) {
                        best = d;
                        most = offer;
                    }
                }
            }
            if (!best)
                return nullptr;
            std::unique_lock<std::mutex> lk(best->mu);
            if (best->asked || best->closed ||
                (best->answered && !best->offer))
                continue;
            best->asked = true;
            best->cv.wait(lk, [&] {
                return best->handed || best->closed ||
                    (best->answered && !best->offer);
            });
            best->asked = false;
            if (best->handed)
                return std::move(best->handed);
        }
    }

  private:
    std::mutex _mu;
    std::vector<std::shared_ptr<Door>> _doors;
};

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
    std::vector<TraceGroup> groups =
        planGroups(runs, opts.chunkInsts, workers);
    unsigned jobs = static_cast<unsigned>(
        std::min<size_t>(workers, groups.size()));
    unsigned max_attempts = std::max(1u, opts.maxAttempts);
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<size_t> groups_done{0};
    std::atomic<uint64_t> failed{0};
    std::mutex sink_mu; // serializes observer calls + progress line
    Clock::time_point t0 = Clock::now();

    // Settle run i: retry a failed first attempt alone, then record
    // the outcome and report it.
    auto settle = [&](size_t i, MemberRun &m) {
        const PlannedRun &run = runs[i];
        RunOutcome &res = results[i];
        res.name = run.name;
        res.workload = run.workload;
        res.configName = run.configName;
        res.model = run.model;
        res.attempts = 1;
        for (unsigned attempt = 2; !m.ok && attempt <= max_attempts;
             ++attempt) {
            res.attempts = attempt;
            _runRetries.fetch_add(1);
            Clock::time_point rt0 = Clock::now();
            try {
                m.output = runOnce(run.spec, opts);
                m.ok = true;
            } catch (...) {
                m.error = currentError();
            }
            m.ms += msSince(rt0);
        }
        res.ok = m.ok;
        res.wallMs = m.ms;
        if (res.ok) {
            res.output = std::move(m.output);
            res.errorMessage.clear();
            _runsOk.fetch_add(1);
        } else {
            res.output = RunOutput{};
            res.errorMessage =
                RunError(i, run.spec.config.name, m.error).what();
            _runsFailed.fetch_add(1);
            failed.fetch_add(1);
        }
        size_t d = done.fetch_add(1) + 1;
        if (observer || opts.progress) {
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
                    "\r[sweep] %zu/%zu runs, %zu/%zu trace groups, "
                    "%llu failed, %.1fs elapsed ",
                    d, runs.size(), groups_done.load(), groups.size(),
                    static_cast<unsigned long long>(failed.load()),
                    msSince(t0) / 1000.0);
                std::fflush(stderr);
            }
        }
    };

    // Run a group (or members handed over from one) with a door that
    // idle workers may knock at, then settle the members it kept.
    DoorRegistry doors;
    auto drive = [&](GroupRun &run, const std::shared_ptr<Door> &door) {
        run.drive(*door);
        doors.leave(door);
        _traceGroups.fetch_add(1);
        _traceChunks.fetch_add(run.produced());
    };
    auto settle_kept = [&](GroupRun &run) {
        for (size_t k = 0; k < run.runs.size(); ++k) {
            if (!run.handed(k))
                settle(run.runs[k], run.members[k]);
        }
    };

    auto worker = [&]() {
        size_t g;
        while ((g = next.fetch_add(1)) < groups.size()) {
            const TraceGroup &group = groups[g];
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
                continue;
            }
            // The door opens before the machines are built, so a worker
            // that runs out of groups meanwhile waits for its offer.
            std::shared_ptr<Door> door = doors.enter();
            GroupRun run(group, runs);
            drive(run, door);
            groups_done.fetch_add(1);
            settle_kept(run);
        }
        // No group left to start: take members over from a running
        // one, so no worker idles while another has a group to finish.
        while (std::unique_ptr<GroupRun> part = doors.take()) {
            drive(*part, doors.enter());
            settle_kept(*part);
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

    if (opts.progress) {
        std::fprintf(stderr,
                     "\r[sweep] %zu runs done in %.1fs (%u jobs, %zu "
                     "trace groups, %llu failed)        \n",
                     runs.size(), msSince(t0) / 1000.0, jobs,
                     groups.size(),
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
