/**
 * @file
 * chopin_perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   chopin_perfbench --workload sweep-cold|frame-latency|stream
 *                    --seed N --seconds S --trace 0|1
 *                    [--tiny] [--spans FILE]
 *
 * Prints every metric by name with its unit, then, as the last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
 * run reports the per-layer ones (and writes its spans to --spans).
 * Exit status 2 means bad arguments and no result.
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "perfbench.hh"
#include "util/check.hh"

namespace
{

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "chopin_perfbench: error: %s\n"
                 "usage: chopin_perfbench --workload "
                 "sweep-cold|frame-latency|stream --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--spans FILE]\n",
                 msg.c_str());
    std::exit(2);
}

/** Failed invariant checks become exceptions, counted as failed frames. */
void
throwingHandler(const chopin::CheckFailure &f)
{
    throw std::runtime_error(f.toString());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                opt.workload = value();
            } else if (a == "--seed") {
                opt.seed = std::stoull(value());
                have_seed = true;
            } else if (a == "--seconds") {
                opt.seconds = std::stod(value());
                have_seconds = true;
            } else if (a == "--trace") {
                std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = v == "1";
                have_trace = true;
            } else if (a == "--spans") {
                opt.spans_path = value();
            } else if (a == "--tiny") {
                opt.tiny = true;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");

    using RunFn = void (*)(const perfbench::Options &, perfbench::Report &,
                           perfbench::SpanLog *);
    RunFn run = nullptr;
    if (opt.workload == "sweep-cold")
        run = perfbench::runSweepCold;
    else if (opt.workload == "frame-latency")
        run = perfbench::runFrameLatency;
    else if (opt.workload == "stream")
        run = perfbench::runStream;
    else
        usage("unknown workload '" + opt.workload + "'");

    chopin::setCheckHandler(throwingHandler);
    perfbench::Report rep;
    perfbench::SpanLog spans;
    run(opt, rep, opt.trace ? &spans : nullptr);
    if (opt.trace && !opt.spans_path.empty() && !spans.write(opt.spans_path))
        std::fprintf(stderr, "chopin_perfbench: cannot write %s\n",
                     opt.spans_path.c_str());

    const double error_rate =
        rep.attempted ? static_cast<double>(rep.failed) /
                            static_cast<double>(rep.attempted)
                      : 1.0;
    std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
    for (const std::string &n : rep.notes)
        std::printf("  %s\n", n.c_str());
    for (const std::string &e : rep.errors)
        std::printf("  FAILED: %s\n", e.c_str());
    for (const perfbench::Report::Metric &m : rep.metrics)
        std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-32s %.6g %s (%llu of %llu failed)\n", "error_rate",
                error_rate, "ratio",
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));

    std::string json = "{\"correct\": ";
    json += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    char num[64];
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const perfbench::Report::Metric &m = rep.metrics[i];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        json += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                num + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
