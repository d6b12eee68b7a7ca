/**
 * @file
 * Marks the threads of a parallel worker pool, so code deep inside a
 * run can see that sibling workers already compete for the CPUs. The
 * one pool, parallelForEach (src/core/sweep.cc; SweepEngine runs its
 * trace groups on it), opens a ParallelWorkerScope on each of its
 * threads when it runs more than one worker; openRunSource()
 * (core/runner.hh) reads it to decide whether a run's stream gets a
 * read-ahead helper thread.
 */

#ifndef STOREMLP_UTIL_PARALLEL_HH
#define STOREMLP_UTIL_PARALLEL_HH

namespace storemlp
{

namespace detail
{
inline thread_local bool tlsParallelWorker = false;
} // namespace detail

/** True on a worker thread of a pool running more than one worker. */
inline bool
onParallelWorker()
{
    return detail::tlsParallelWorker;
}

/** Marks the calling thread as a parallel pool worker while it lives. */
class ParallelWorkerScope
{
  public:
    ParallelWorkerScope() : _prev(detail::tlsParallelWorker)
    {
        detail::tlsParallelWorker = true;
    }
    ~ParallelWorkerScope() { detail::tlsParallelWorker = _prev; }

    ParallelWorkerScope(const ParallelWorkerScope &) = delete;
    ParallelWorkerScope &operator=(const ParallelWorkerScope &) = delete;

  private:
    bool _prev;
};

} // namespace storemlp

#endif // STOREMLP_UTIL_PARALLEL_HH
