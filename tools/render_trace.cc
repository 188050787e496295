/**
 * @file
 * render_trace: render a saved trace under any SFR scheme and write the
 * frame as a PPM image, optionally verifying it against the single-GPU
 * reference.
 *
 *   render_trace frame.trace --scheme=chopin+cs --gpus=8 --out=frame.ppm
 *
 * With --trace-out=frame.trace.json it additionally records a
 * deterministic timeline (per-draw pipeline stages, per-transfer link
 * spans, sync/composition phases) and writes it as Chrome trace-event
 * JSON, loadable in Perfetto or chrome://tracing. The file is a pure
 * function of (trace, scheme, config): byte-identical at any --jobs.
 */

#include <fstream>
#include <iostream>

#include "core/chopin.hh"
#include "stats/tracer.hh"
#include "util/check.hh"

namespace
{

chopin::Scheme
schemeByName(const std::string &name)
{
    using chopin::Scheme;
    if (name == "single")
        return Scheme::SingleGpu;
    if (name == "dup" || name == "duplication")
        return Scheme::Duplication;
    if (name == "gpupd")
        return Scheme::Gpupd;
    if (name == "gpupd-ideal")
        return Scheme::GpupdIdeal;
    if (name == "chopin-rr")
        return Scheme::ChopinRoundRobin;
    if (name == "chopin")
        return Scheme::Chopin;
    if (name == "chopin+cs")
        return Scheme::ChopinCompSched;
    if (name == "chopin-ideal")
        return Scheme::ChopinIdeal;
    chopin::fatal("unknown scheme '", name,
                  "' (single dup gpupd gpupd-ideal chopin chopin-rr "
                  "chopin+cs chopin-ideal)");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace chopin;

    // Malformed arguments produce a "render_trace: error: ..." line and
    // exit code 2 instead of an assertion abort deep inside the library.
    setCliCheckTool("render_trace");

    CommandLine cli("render a CHOPIN trace to an image");
    cli.addFlag("scheme", "chopin+cs", "rendering scheme");
    cli.addFlag("gpus", "8", "number of GPUs");
    cli.addFlag("out", "frame.ppm", "output PPM path");
    cli.addFlag("trace-out", "",
                "write the simulation timeline as Chrome trace-event JSON "
                "(open in Perfetto or chrome://tracing; empty = off)");
    cli.addFlag("verify", "true", "compare against single-GPU reference");
    cli.parse(argc, argv);
    if (cli.positional().size() != 1)
        fatal("usage: render_trace <file.trace> [flags]");

    // Validate every output path before the (potentially long) simulation.
    std::string out_path = cli.getString("out");
    std::string trace_out = cli.getString("trace-out");
    checkWritablePath(out_path, "--out");
    if (!trace_out.empty())
        checkWritablePath(trace_out, "--trace-out");

    // A malformed trace is bad input like a malformed flag: loadTrace()
    // names the problem, and the tool exits 2.
    FrameTrace trace;
    CHOPIN_CHECK(loadTrace(trace, cli.positional()[0]), "cannot load '",
                 cli.positional()[0], "'");

    long gpus = cli.getInt("gpus");
    CHOPIN_CHECK(gpus >= 1 && gpus <= 64,
                 "--gpus must be in [1, 64], got ", gpus);

    SystemConfig cfg;
    cfg.num_gpus = static_cast<unsigned>(gpus);
    Scheme scheme = schemeByName(cli.getString("scheme"));
    Tracer tracer;
    FrameResult r = runScheme(scheme, cfg, trace,
                              trace_out.empty() ? nullptr : &tracer);

    std::cout << toString(scheme) << " on " << cfg.num_gpus
              << " GPU(s): " << r.cycles << " cycles, "
              << formatMb(r.traffic.total) << " MB inter-GPU traffic\n";

    if (cli.getBool("verify") && scheme != Scheme::SingleGpu) {
        FrameResult reference = runSingleGpu(cfg, trace);
        ImageDiff diff = compareImages(reference.image, r.image, 2e-4f);
        if (diff.differing_pixels != 0)
            fatal("image mismatch: ", diff.differing_pixels,
                  " pixels differ from the single-GPU reference");
        std::cout << "verified: image matches the single-GPU reference\n";
    }

    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot write '", trace_out, "'");
        tracer.exportChromeJson(os);
        os.flush();
        if (!os)
            fatal("error while writing '", trace_out, "'");
        std::cout << "wrote " << trace_out << " (" << tracer.spanCount()
                  << " spans)\n";
    }

    if (!r.image.writePpm(out_path))
        fatal("cannot write '", out_path, "'");
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
