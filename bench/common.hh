/**
 * @file
 * Shared scaffolding for the per-figure benchmark harnesses.
 *
 * Every harness accepts:
 *   --scale=N      trace scale divisor (1 = the paper's full Table III
 *                  sizes; scaled traces are proportional miniatures, see
 *                  trace/profile.hh, so relative results are preserved)
 *   --gpus=N       GPU count where the figure does not sweep it
 *   --bench=X      restrict to one benchmark (default: all eight)
 *   --csv=B        also print a machine-readable CSV block (default true)
 *   --jobs=N       global pool threads: concurrent frames of a stream run
 *                  (a single frame is serial host code)
 *   --sweep-jobs=N concurrent scenarios (see core/sweep.hh)
 *   --cache=DIR    on-disk content-addressed result cache (default: the
 *                  CHOPIN_RESULT_CACHE environment variable; empty = off)
 *   --trace-out=F  write a Chrome trace-event JSON timeline of one sample
 *                  scenario (harnesses that support it call
 *                  writeTraceSample(); the path is validated up front)
 *
 * Harness::run() is backed by the sweep engine (core/sweep.hh): results
 * are memoized under the exhaustive scenario fingerprint — never a
 * hand-listed field subset — and shared through the optional disk cache.
 * Harnesses that know their whole grid up front call prefetch() once,
 * which executes every cell scenario-parallel before the first read.
 */

#ifndef CHOPIN_BENCH_COMMON_HH
#define CHOPIN_BENCH_COMMON_HH

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/chopin.hh"
#include "core/sweep.hh"

namespace chopin::bench
{

/** Parsed common options plus the underlying CommandLine. */
class Harness
{
  public:
    /**
     * @param description one-line description printed as the header
     * @param default_scale default trace scale divisor for this figure
     */
    Harness(std::string description, int default_scale);
    ~Harness();

    /** Register an extra flag before parse(). */
    void addFlag(const std::string &name, const std::string &def,
                 const std::string &help)
    {
        cli.addFlag(name, def, help);
    }

    /**
     * Parse and validate argv. Malformed values (e.g. --gpus=-1,
     * --scale=0) produce a "<prog>: error: ..." diagnostic and exit
     * code 2; they never wrap through unsigned conversions.
     */
    void parse(int argc, char **argv);

    int scale() const { return scale_div; }
    unsigned gpus() const { return gpu_count; }
    const std::vector<std::string> &benchmarks() const { return benches; }
    const CommandLine &flags() const { return cli; }

    /** Generate (and cache) the trace for @p bench at the run's scale. */
    const FrameTrace &trace(const std::string &bench);

    /** Run (and cache) a scheme on a benchmark with this config. */
    const FrameResult &run(Scheme scheme, const std::string &bench,
                           const SystemConfig &cfg);

    /**
     * Execute a figure's whole grid scenario-parallel before the first
     * read; every later run() against a grid cell is a memo hit.
     */
    void prefetch(const std::vector<Scenario> &grid);

    /**
     * Convenience grid builder: the cross product of @p schemes x the
     * selected benchmarks for each config in @p cfgs.
     */
    std::vector<Scenario> grid(const std::vector<Scheme> &schemes,
                               const std::vector<SystemConfig> &cfgs) const;

    /** The underlying sweep engine (valid after parse()). */
    SweepRunner &runner();

    /** Print the table, then its CSV block if --csv. */
    void emit(const TextTable &table) const;

    /**
     * If --trace-out was given, simulate @p scheme on the first selected
     * benchmark under @p cfg with the timeline tracer attached and write
     * the Chrome trace-event JSON. The traced run deliberately bypasses
     * the sweep engine: cached results carry no spans, and the recorder
     * must observe a live simulation. No-op when the flag is empty.
     */
    void writeTraceSample(Scheme scheme, const SystemConfig &cfg);

  private:
    CommandLine cli;
    std::string desc;
    int default_scale;
    int scale_div = 1;
    unsigned gpu_count = 8;
    std::vector<std::string> benches;
    std::unique_ptr<SweepRunner> sweep;
};

/** Geometric mean of a non-empty vector of positive ratios. */
double gmean(const std::vector<double> &values);

/** A percentage string with one decimal, e.g. "23.4%". */
std::string percent(double ratio);

} // namespace chopin::bench

#endif // CHOPIN_BENCH_COMMON_HH
