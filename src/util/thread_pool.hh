/**
 * @file
 * Host-side worker pool for running whole simulations side by side.
 *
 * The simulator's *simulated* parallelism (N GPUs, pipeline stages) is
 * modelled entirely in simulated Ticks; one simulation (one runScheme
 * call) is serial host code. Host parallelism has exactly one level: the
 * sweep engine's scenarios (core/sweep.cc) and the stream pipeline's
 * frames (sfr/sequence.cc) run as independent simulations on a pool,
 * each inside a ScenarioRegion, writing into pre-sized result slots — so
 * `--jobs=N` produces bit-identical images, stats and cycle counts to
 * `--jobs=1`. See DESIGN.md, "Host parallelism vs. simulated
 * parallelism".
 *
 * Rules (enforced by tools/lint_check.py):
 *  - no raw std::thread / std::async outside this file pair (`thread`);
 *  - parallelFor is called only from the two scenario-level files above
 *    (`parallel-site`);
 *  - parallel regions write results into pre-sized, caller-owned slots
 *    (never reduce in completion order);
 *  - nested parallelFor calls from inside a worker run serially (no
 *    deadlock, no oversubscription).
 */

#ifndef CHOPIN_UTIL_THREAD_POOL_HH
#define CHOPIN_UTIL_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace chopin
{

/** A contiguous index range [begin, end) handed to one pool task. */
using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;

/** Fixed-size worker pool with a deterministic parallel-for primitive. */
class ThreadPool
{
  public:
    /**
     * @param job_count total degree of parallelism including the calling
     *        thread; 1 means "never spawn a thread, run everything inline".
     */
    explicit ThreadPool(unsigned job_count);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned jobs() const { return job_count; }

    /**
     * Invoke @p fn over [0, n) split into contiguous chunks of at least
     * @p grain indices. Chunks are claimed dynamically, so @p fn must be
     * safe for any chunk-to-thread mapping: write results only into slots
     * indexed by the loop index (or disjoint per-index state) and the
     * outcome is independent of the schedule. Blocks until every index has
     * been processed; the calling thread participates in the work.
     *
     * Runs inline (serially, in index order) when jobs() == 1, when n is
     * too small to split, or when called from inside another parallelFor.
     * The first exception thrown by @p fn is rethrown on the caller.
     */
    void parallelFor(std::size_t n, std::size_t grain, const RangeFn &fn);

    /** parallelFor with per-index granularity (grain = 1). */
    void
    parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        parallelFor(n, 1, [&fn](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        });
    }

  private:
    struct Impl;
    Impl *impl = nullptr; ///< null when job_count == 1 (pure serial pool)
    unsigned job_count = 1;
};

/**
 * The process-wide pool used by the rendering engine. Sized on first use
 * from defaultJobs(); resized by setGlobalJobs(). Never call from a
 * destructor that may run after main().
 */
ThreadPool &globalPool();

/**
 * Resize the global pool (e.g. from a --jobs flag). Must not be called
 * while a parallelFor on the global pool is in flight. @p job_count of 0
 * selects defaultJobs().
 */
void setGlobalJobs(unsigned job_count);

/** Degree of parallelism of the global pool without instantiating it. */
unsigned globalJobs();

/**
 * Default degree of parallelism: the CHOPIN_JOBS environment variable when
 * set to a positive integer, otherwise std::thread::hardware_concurrency()
 * (at least 1).
 */
unsigned defaultJobs();

/**
 * True while the calling thread is executing chunks of a parallelFor
 * (worker or participating caller). The sequential-ownership capability
 * (util/sequential.hh) uses this to assert that coordinator-owned
 * timing-model state is never touched from functional parallel code.
 */
bool inParallelRegion();

/**
 * RAII marker for a pool task that runs one whole simulation (a sweep
 * scenario or a stream frame; see core/sweep.hh and DESIGN.md §9).
 *
 * A scenario task runs one complete, independent simulation — it constructs
 * its own EventQueue, Interconnect and surfaces, and no other thread ever
 * touches them. That satisfies the sequential-ownership contract
 * (util/sequential.hh) *per scenario*, but the thread-local
 * inParallelRegion() flag cannot tell "a whole simulation running as a
 * pool task" from "pool-task code reaching into someone else's
 * simulation", so without help every coordinator-owned object would trip
 * its assertSequential() check.
 *
 * Entering a ScenarioRegion from inside a parallelFor chunk therefore
 *  1. clears the in-parallel flag for the region's lifetime — the scenario
 *     thread *is* the coordinator thread of its private simulation; and
 *  2. forces every nested parallelFor (any pool) to run inline — a stream
 *     run nested in a sweep scenario simulates its frames in order on the
 *     scenario's thread instead of contending for the global pool, with
 *     results bit-identical by the slot-writing discipline.
 *
 * Entered on a thread outside any parallel region (a one-job pool runs
 * its chunks inline on the caller), it is a no-op.
 */
class ScenarioRegion
{
  public:
    ScenarioRegion();
    ~ScenarioRegion();

    ScenarioRegion(const ScenarioRegion &) = delete;
    ScenarioRegion &operator=(const ScenarioRegion &) = delete;

  private:
    bool saved_in_parallel;
    bool saved_inline_only;
};

} // namespace chopin

#endif // CHOPIN_UTIL_THREAD_POOL_HH
