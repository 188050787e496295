/**
 * @file
 * SequentialCap: the capability modelling single-thread ownership of
 * simulator state.
 *
 * The determinism contract (DESIGN.md, "Host parallelism vs. simulated
 * parallelism") gives every simulation one owner:
 *
 *  - the *coordinator* thread of a simulation runs all of it — functional
 *    rendering and the timing model (EventQueue, Interconnect,
 *    composition schedulers, pipelines, stats tables) alike — strictly
 *    sequentially, in simulated Ticks;
 *  - host parallelism runs *whole simulations* side by side (the sweep
 *    engine's scenarios, the stream pipeline's frames). A pool task
 *    becomes the coordinator of its own private simulation by entering a
 *    ScenarioRegion (util/thread_pool.hh); pool-task code outside one
 *    must not touch any simulation's timing-model objects.
 *
 * A SequentialCap member marks a class as coordinator-owned. Mutable state
 * is declared CHOPIN_GUARDED_BY(seq) and every public entry point opens
 * with seq.assertHeld(), which
 *
 *  1. statically: tells clang's thread-safety analysis the capability is
 *     held from that point on, so any *other* access path to the guarded
 *     members — a new method, a lambda handed to parallelFor, a helper
 *     missing the assertion — fails the -Werror=thread-safety build; and
 *  2. dynamically: CHOPIN_ASSERTs the caller is not inside a parallelFor
 *     region (ThreadPool workers set a thread-local flag that a
 *     ScenarioRegion clears), so a coordinator-owned object touched from
 *     pool-task code aborts in Debug/RelWithDebInfo builds even under
 *     gcc.
 *
 * The capability is intentionally non-viral: callers never have to be
 * annotated, because the assertion (not a REQUIRES contract) establishes
 * the capability at the component boundary. Free functions that are part
 * of the coordinator-only surface (e.g. the compose* entry points) call
 * assertSequential("what") for the dynamic half of the check.
 */

#ifndef CHOPIN_UTIL_SEQUENTIAL_HH
#define CHOPIN_UTIL_SEQUENTIAL_HH

#include "util/check.hh" // CHOPIN_CHECK_LEVEL gating
#include "util/thread_annotations.hh"

namespace chopin
{

namespace detail
{

/** Out-of-line dynamic check: CHOPIN_ASSERTs the calling thread is not a
 *  ThreadPool worker inside a parallelFor region. */
void failUnlessSequential(const char *what);

} // namespace detail

/**
 * Assert that @p what is being executed on the coordinator thread, outside
 * any parallelFor region. Compiled out in Release (check level 0).
 */
inline void
assertSequential(const char *what)
{
#if CHOPIN_CHECK_LEVEL >= 1
    detail::failUnlessSequential(what);
#else
    (void)what;
#endif
}

/** The single-thread-ownership capability; see the file comment. */
class CHOPIN_CAPABILITY("sequential") SequentialCap
{
  public:
    SequentialCap() = default;
    SequentialCap(const SequentialCap &) = default;
    SequentialCap &operator=(const SequentialCap &) = default;

    /**
     * Establish the capability for the rest of the calling function.
     * Every public method of a coordinator-owned class calls this before
     * touching guarded members.
     */
    void
    assertHeld(const char *what) const CHOPIN_ASSERT_CAPABILITY(this)
    {
        assertSequential(what);
    }
};

} // namespace chopin

#endif // CHOPIN_UTIL_SEQUENTIAL_HH
