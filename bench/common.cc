#include "common.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "stats/tracer.hh"
#include "util/check.hh"
#include "util/log.hh"

namespace chopin::bench
{

namespace
{

/** Basename of argv[0] for "<prog>: error: ..." diagnostics. */
std::string
programName(int argc, char **argv)
{
    if (argc < 1 || argv[0] == nullptr)
        return "bench";
    std::string prog = argv[0];
    std::size_t slash = prog.find_last_of('/');
    return slash == std::string::npos ? prog : prog.substr(slash + 1);
}

} // namespace

Harness::Harness(std::string description, int default_scale)
    : cli(description), desc(std::move(description)),
      default_scale(default_scale)
{
    cli.addFlag("scale", std::to_string(default_scale),
                "trace scale divisor (1 = full Table III size)");
    cli.addFlag("gpus", "8", "GPU count (where the figure does not sweep it)");
    cli.addFlag("bench", "all",
                "benchmark: cod2 cry grid mirror nfs stal ut3 wolf or 'all'");
    cli.addFlag("csv", "true", "print a CSV block after each table");
    cli.addFlag("jobs", "0",
                "host worker threads of the global pool, on which a stream "
                "run's frames simulate concurrently (0 = CHOPIN_JOBS env or "
                "hardware concurrency; results are bit-identical at any "
                "value)");
    cli.addFlag("sweep-jobs", "0",
                "concurrent scenarios (whole simulations) executed by the "
                "sweep engine (0 = hardware concurrency, 1 = serial; "
                "results are bit-identical at any value)");
    const char *cache_env = std::getenv("CHOPIN_RESULT_CACHE");
    cli.addFlag("cache", cache_env == nullptr ? "" : cache_env,
                "on-disk result cache directory shared across harnesses "
                "(default: CHOPIN_RESULT_CACHE env; empty = disabled)");
    cli.addFlag("trace-out", "",
                "write a Chrome trace-event JSON timeline of one sample "
                "scenario (open in Perfetto or chrome://tracing; "
                "empty = off)");
}

Harness::~Harness() = default;

void
Harness::parse(int argc, char **argv)
{
    // Malformed arguments produce a "<prog>: error: ..." line and exit
    // code 2 instead of wrapping through unsigned conversions or aborting
    // deep inside the library.
    setCliCheckTool(programName(argc, argv));
    cli.parse(argc, argv);

    long scale = cli.getInt("scale");
    CHOPIN_CHECK(scale >= 1 && scale <= 1000000,
                 "--scale must be in [1, 1000000], got ", scale);
    scale_div = static_cast<int>(scale);

    long gpus_raw = cli.getInt("gpus");
    CHOPIN_CHECK(gpus_raw >= 1 && gpus_raw <= 256,
                 "--gpus must be in [1, 256], got ", gpus_raw);
    gpu_count = static_cast<unsigned>(gpus_raw);

    long jobs = cli.getInt("jobs");
    CHOPIN_CHECK(jobs >= 0 && jobs <= 1024,
                 "--jobs must be in [0, 1024], got ", jobs);
    setGlobalJobs(static_cast<unsigned>(jobs));

    long sweep_jobs = cli.getInt("sweep-jobs");
    CHOPIN_CHECK(sweep_jobs >= 0 && sweep_jobs <= 1024,
                 "--sweep-jobs must be in [0, 1024], got ", sweep_jobs);

    // Output paths fail fast, before any simulation runs.
    std::string trace_out = cli.getString("trace-out");
    if (!trace_out.empty())
        checkWritablePath(trace_out, "--trace-out");

    std::string bench = cli.getString("bench");
    if (bench == "all") {
        for (const BenchmarkProfile &p : allBenchmarkProfiles())
            benches.push_back(p.name);
    } else {
        benchmarkProfile(bench); // validates the name
        benches.push_back(bench);
    }

    SweepOptions opts;
    opts.sweep_jobs = static_cast<unsigned>(sweep_jobs);
    opts.scale = scale_div;
    opts.cache_dir = cli.getString("cache");
    sweep = std::make_unique<SweepRunner>(opts);

    std::cout << "# " << desc << "\n# scale divisor: " << scale_div
              << (scale_div == 1 ? " (full Table III trace sizes)" : "")
              << "\n\n";
}

const FrameTrace &
Harness::trace(const std::string &bench)
{
    CHOPIN_CHECK(sweep != nullptr, "Harness::trace() before parse()");
    return sweep->trace(bench);
}

const FrameResult &
Harness::run(Scheme scheme, const std::string &bench,
             const SystemConfig &cfg)
{
    CHOPIN_CHECK(sweep != nullptr, "Harness::run() before parse()");
    return sweep->run(scheme, bench, cfg);
}

void
Harness::prefetch(const std::vector<Scenario> &grid_scenarios)
{
    CHOPIN_CHECK(sweep != nullptr, "Harness::prefetch() before parse()");
    sweep->prefetch(grid_scenarios);
}

std::vector<Scenario>
Harness::grid(const std::vector<Scheme> &schemes,
              const std::vector<SystemConfig> &cfgs) const
{
    std::vector<Scenario> out;
    out.reserve(schemes.size() * cfgs.size() * benches.size());
    for (const SystemConfig &cfg : cfgs)
        for (Scheme s : schemes)
            for (const std::string &name : benches)
                out.push_back(Scenario{s, name, cfg});
    return out;
}

SweepRunner &
Harness::runner()
{
    CHOPIN_CHECK(sweep != nullptr, "Harness::runner() before parse()");
    return *sweep;
}

void
Harness::emit(const TextTable &table) const
{
    table.print(std::cout);
    if (cli.getBool("csv")) {
        std::cout << "\ncsv:\n";
        table.printCsv(std::cout);
    }
    std::cout << "\n";
}

void
Harness::writeTraceSample(Scheme scheme, const SystemConfig &cfg)
{
    std::string path = cli.getString("trace-out");
    if (path.empty())
        return;
    CHOPIN_CHECK(!benches.empty(), "--trace-out needs a benchmark");
    Tracer tracer;
    // Direct runScheme on purpose: a sweep-engine hit would return a
    // cached FrameResult with no spans recorded. (No suppression needed:
    // bench/common.* is the harness layer the rule exempts.)
    FrameResult r = runScheme(
        scheme, cfg, trace(benches.front()), &tracer);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    CHOPIN_CHECK(os.good(), "cannot write '", path, "'");
    tracer.exportChromeJson(os);
    os.flush();
    CHOPIN_CHECK(os.good(), "error while writing '", path, "'");
    std::cout << "# wrote " << path << " (" << tracer.spanCount()
              << " spans, " << toString(scheme) << " on "
              << benches.front() << ", " << r.num_gpus << " GPUs)\n";
}

double
gmean(const std::vector<double> &values)
{
    chopin_assert(!values.empty());
    double log_sum = 0.0;
    for (double v : values) {
        chopin_assert(v > 0.0);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
percent(double ratio)
{
    return formatDouble(ratio * 100.0, 1) + "%";
}

} // namespace chopin::bench
