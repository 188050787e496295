/**
 * @file
 * Shared pieces of the benchmark program: options, the result report, an
 * in-memory span log for traced runs, and the per-layer replays.
 *
 * Host time (wall clock, std::chrono::steady_clock) and simulated time
 * (cycles, bytes and counts read from the result metric registries) are
 * kept apart: nothing here feeds a wall-clock value into a simulation,
 * a hash or a registered metric.
 */

#ifndef CHOPIN_PERFBENCH_PERFBENCH_HH
#define CHOPIN_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/chopin.hh"
#include "core/sweep.hh"
#include "util/fingerprint.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Smoke-test size: two benchmarks, tiny traces, short streams. */
    bool tiny = false;
    /** Where a traced run writes its spans; empty = not written. */
    std::string spans_path;
};

/** What one run prints: metrics by name with unit, plus failure counts. */
class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    /** Count @p n failed operations; keeps the first few descriptions. */
    void fail(const std::string &what, std::uint64_t n = 1);
    void note(const std::string &line) { notes.push_back(line); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    std::vector<std::string> errors;
};

/**
 * In-memory spans (name, start, end, parent, frame id) recorded from the
 * benchmark's own files around calls into each library layer. Names must
 * be string literals (they are stored as pointers). Single-threaded: only
 * the calling thread opens and closes spans.
 */
class SpanLog
{
  public:
    int open(const char *name, int frame);
    void close(int id);

    /** Self time per span name: duration minus the direct children's. */
    std::map<std::string, double> selfSeconds() const;
    /** Number of spans per name. */
    std::map<std::string, std::size_t> counts() const;

    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
        int frame;
    };
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span; does nothing when @p log is null (untraced runs). */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, int frame = -1)
        : log(log), id(log ? log->open(name, frame) : -1)
    {
    }
    ~Scope()
    {
        if (log)
            log->close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log;
    int id;
};

/**
 * Simulated-model aggregate over every result a workload produced, plus
 * a digest folding every registered metric of every result, so runs of
 * the same code can be checked for exact simulated agreement.
 */
struct ModelTotals
{
    chopin::Fingerprinter digest;
    double cycles = 0;
    double comp_cycles = 0;
    double traffic_total = 0;
    double traffic_comp = 0;
    double sched_bytes = 0;
    double groups_total = 0;
    double groups_distributed = 0;
    double micro_stutter = 0; ///< summed over HybridAfrSfr sequences

    void addFrame(const chopin::FrameAccounting &r);
    void addSequence(const chopin::SequenceResult &r);
    /** Emits the model.* per-layer metrics. */
    void report(Report &rep) const;
};

/** Counts gathered by the layer replays (host times come from spans). */
struct LayerTotals
{
    std::uint64_t frames = 0;
    std::uint64_t tris_in = 0;
    std::uint64_t tris_rasterized = 0;
    std::uint64_t frags_generated = 0;
    std::uint64_t frags_written = 0;
    std::uint64_t comp_bytes = 0;
    std::uint64_t comp_pixels = 0; ///< input pixels per algorithm
    std::uint64_t gpu_draws = 0;
    std::uint64_t net_messages = 0;
    std::uint64_t sim_events = 0;
};

/**
 * Replay one frame layer by layer on the calling thread: gfx (surfaces,
 * geometry, binning, draws, hashes) as a single-GPU render, comp over 8
 * per-GPU depth images split from it, the draws' DrawStats through a
 * GpuPipeline, composition bytes through an Interconnect and their
 * deliveries through an EventQueue. @p ref is the frame's SingleGpu
 * result; the replay must reproduce its hashes and cycle count.
 */
void replayLayers(const chopin::FrameTrace &trace, int frame,
                  const chopin::SystemConfig &cfg,
                  const chopin::FrameAccounting &ref, SpanLog &log,
                  LayerTotals &acc, Report &rep);

/** Emits the gfx/comp/gpu/net/sim per-layer metrics and sfr.form_groups_ms. */
void reportLayers(const LayerTotals &acc, const SpanLog &log, Report &rep);

/** Span name of a frame scheme ("sfr.chopin_compsched"). */
const char *schemeSpan(chopin::Scheme s);
/** Span name of a stream scheme ("sfr.hybrid"). */
const char *streamSpan(chopin::SequenceScheme s);

/** Table III profile at @p scale with generation seed drawn from @p seed. */
chopin::BenchmarkProfile seededProfile(const std::string &bench, int scale,
                                       std::uint64_t seed);

/** Linear-interpolated quantile of @p v (0 <= q <= 1); 0 when empty. */
double quantile(std::vector<double> v, double q);

/** Peak resident set size (VmHWM) of this process in MiB. */
double peakRssMb();

void runSweepCold(const Options &opt, Report &rep, SpanLog *log);
void runFrameLatency(const Options &opt, Report &rep, SpanLog *log);
void runStream(const Options &opt, Report &rep, SpanLog *log);

} // namespace perfbench

#endif // CHOPIN_PERFBENCH_PERFBENCH_HH
