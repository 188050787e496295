/**
 * @file
 * Wall-clock performance harness for the rendering engine.
 *
 * Renders each Table III benchmark frame under SingleGpu, Duplication,
 * GPUpd, CHOPIN and CHOPIN+CompSched, best-of --repeat, and reports
 * ns/frame and Mtris/s with each frame's hash and simulated cycle count.
 * A frame is serial host code, so the frame series has a single leg; the
 * hashes and cycles are what the forced-scalar CI leg compares across
 * builds (bench_json.py --compare).
 *
 * Unlike the fig* harnesses this measures *host* wall-clock time
 * (std::chrono), not simulated cycles; the simulated results are the
 * determinism oracle, not the metric. Writes a JSON summary (default
 * BENCH_frame.json) consumed by tools/bench_json.py.
 *
 * Engine-level series ride along in the same JSON:
 *  - `event_queue_ns_per_event`: schedule+dispatch cost of one EventQueue
 *    event with an inline (small-buffer) callback capture.
 *  - `raster_speedup`: ns/pixel of the quad rasterizer's native SIMD lanes
 *    over the one-pixel-at-a-time scalar reference (both compiled from the
 *    same kernel in gfx/raster.hh), on a deterministic triangle soup. An
 *    order-sensitive fragment hash proves the two paths emitted the exact
 *    same fragments before the ratio means anything (gated in CI via
 *    bench_json.py --series raster --min-speedup).
 *  - `stream_speedup`: wall-clock serial/parallel ratio of the frame-stream
 *    pipeline (sfr/sequence.hh) rendering a 16-frame orbit sequence under
 *    hybrid AFR+SFR, with frames simulated scenario-parallel on the pool.
 *    Every registered stream metric — including the sequence hash folding
 *    each frame's hash and completion tick — must be bit-identical between
 *    the two legs before the ratio is reported (gated in CI via
 *    bench_json.py --series stream --min-speedup). --stream-out additionally
 *    writes a standalone BENCH_stream.json with one row per stream scheme
 *    (pure SFR / pure AFR / hybrid), same contract as the main dump.
 */

#include "common.hh"

#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>

#include "gfx/raster.hh"
#include "trace/generator.hh"
#include "sim/event_queue.hh"
#include "stats/metrics.hh"
#include "stats/report.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace
{

using chopin::FrameResult;

/** Wall-clock nanoseconds of one invocation of @p fn (steady clock). */
template <typename Fn>
double
elapsedNs(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/** Assert that two stream runs are simulation-identical: every registered
 *  stream metric (which folds the per-frame hashes and completion ticks
 *  via the sequence hash) must match between the serial and parallel
 *  legs. */
void
checkIdenticalStream(const chopin::SequenceResult &serial,
                     const chopin::SequenceResult &parallel,
                     const std::string &what)
{
    const chopin::SequenceAccounting &a = serial;
    const chopin::SequenceAccounting &b = parallel;
    if (chopin::metricsEqual(a, b))
        return;
    std::string names;
    for (const std::string &n : chopin::metricsDiff(a, b))
        names += (names.empty() ? "" : ", ") + n;
    chopin_assert(false, what, ": stream metrics differ between --jobs=1 "
                  "and --jobs=N: ", names);
}

struct Measurement
{
    std::string bench;
    std::string scheme;
    std::uint64_t tris = 0;
    double ns = 0.0;
    std::uint64_t frame_hash = 0;
    std::uint64_t cycles = 0;
};

double
mtrisPerSecond(std::uint64_t tris, double ns)
{
    return ns <= 0.0 ? 0.0 : static_cast<double>(tris) * 1000.0 / ns;
}

/** Schedule+dispatch cost of one EventQueue event whose capture fits the
 *  InlineFunction small buffer (the common case for timing-model events). */
double
measureEventQueueNs(int repeat)
{
    constexpr int events = 1 << 17;
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < repeat; ++rep) {
        chopin::EventQueue eq;
        eq.reserve(events);
        std::uint64_t sum = 0;
        double ns = elapsedNs([&] {
            for (int i = 0; i < events; ++i)
                eq.schedule(static_cast<chopin::Tick>(i % 1024),
                            [&sum, i] { sum += static_cast<unsigned>(i); });
            eq.run();
        });
        chopin_assert(sum == std::uint64_t(events) * (events - 1) / 2,
                      "event queue bench dropped events");
        best = std::min(best, ns / events);
    }
    return best;
}

/**
 * Deterministic screen-space triangle soup for the raster series: moderate
 * triangles scattered over the viewport, distinct per-vertex z and color so
 * the interpolation lanes do real work. Seeded Rng (PCG32) so every run and
 * every build rasterizes the identical soup.
 */
std::vector<chopin::ScreenTriangle>
makeRasterSoup(int width, int height, int count)
{
    using chopin::ScreenTriangle;
    chopin::Rng rng(0x5eed0c09u);
    std::vector<ScreenTriangle> soup;
    soup.reserve(static_cast<std::size_t>(count));
    const float w = static_cast<float>(width);
    const float hgt = static_cast<float>(height);
    for (int i = 0; i < count; ++i) {
        const float cx = rng.nextFloat(0.0f, w);
        const float cy = rng.nextFloat(0.0f, hgt);
        ScreenTriangle st;
        for (chopin::ScreenVertex &v : st.v) {
            v.pos = {cx + rng.nextFloat(-60.0f, 60.0f),
                     cy + rng.nextFloat(-60.0f, 60.0f)};
            v.z = rng.nextFloat(0.05f, 0.95f);
            v.color = {rng.nextFloat(), rng.nextFloat(), rng.nextFloat(),
                       rng.nextFloat(0.25f, 1.0f)};
        }
        st.cacheBounds(width, height);
        soup.push_back(st);
    }
    return soup;
}

struct RasterOracle
{
    std::uint64_t pixels = 0; ///< covered pixels over one soup pass
    std::uint64_t hash = 0;   ///< order-sensitive fragment hash
};

/**
 * Untimed equality oracle: fold every fragment (position, z and color down
 * to the float bit pattern, in emission order) into an FNV hash. Scalar and
 * SIMD lanes must produce the same hash or the timing ratio compares two
 * different computations.
 */
template <typename Lanes>
RasterOracle
rasterOracle(const std::vector<chopin::ScreenTriangle> &soup,
             const chopin::Viewport &vp, const chopin::PixelRect &full)
{
    RasterOracle o;
    o.hash = 1469598103934665603ull;
    auto fold = [&o](std::uint32_t v) {
        o.hash = (o.hash ^ v) * 1099511628211ull;
    };
    auto sink = [&](const chopin::Fragment &f) {
        ++o.pixels;
        fold(static_cast<std::uint32_t>(f.x));
        fold(static_cast<std::uint32_t>(f.y));
        fold(std::bit_cast<std::uint32_t>(f.z));
        fold(std::bit_cast<std::uint32_t>(f.color.r));
        fold(std::bit_cast<std::uint32_t>(f.color.g));
        fold(std::bit_cast<std::uint32_t>(f.color.b));
        fold(std::bit_cast<std::uint32_t>(f.color.a));
    };
    for (const chopin::ScreenTriangle &st : soup)
        chopin::rasterizeTriangleInRectAs<Lanes>(st, vp, full, sink);
    return o;
}

/**
 * Timed pass: the quad-aware span sink the binned renderer's hot path uses,
 * kept deliberately cheap (popcount + one stored lane folded) so the
 * measurement is the kernel, not the sink. Returns best-of-@p repeat
 * nanoseconds for @p passes full-soup rasterizations.
 */
template <typename Lanes>
double
rasterTimedNs(const std::vector<chopin::ScreenTriangle> &soup,
              const chopin::Viewport &vp, const chopin::PixelRect &full,
              int passes, int repeat, std::uint64_t expected_pixels)
{
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t fold_ref = 0;
    for (int rep = 0; rep < repeat; ++rep) {
        std::uint64_t pixels = 0;
        std::uint32_t fold = 0;
        double ns = elapsedNs([&] {
            auto sink = [&](const chopin::FragmentSpan &span) {
                pixels += static_cast<std::uint32_t>(
                    std::popcount(span.mask));
                fold ^= std::bit_cast<std::uint32_t>(span.z[0]);
            };
            for (int pass = 0; pass < passes; ++pass)
                for (const chopin::ScreenTriangle &st : soup)
                    chopin::rasterizeTriangleInRectAs<Lanes>(st, vp, full,
                                                             sink);
        });
        chopin_assert(pixels ==
                          expected_pixels * static_cast<std::uint64_t>(passes),
                      "raster bench: timed pass coverage diverged from the "
                      "oracle pass");
        // Keeps the interpolation fold observable and doubles as a
        // repetition-determinism check.
        if (rep == 0)
            fold_ref = fold;
        chopin_assert(fold == fold_ref,
                      "raster bench: timed repetitions diverged");
        best = std::min(best, ns);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace chopin;
    using namespace chopin::bench;

    Harness h("Wall-clock frame rendering and frame-stream pipeline", 8);
    h.addFlag("repeat", "3", "timed repetitions per configuration (best-of)");
    h.addFlag("out", "BENCH_frame.json",
              "JSON summary path (empty = don't write)");
    h.addFlag("stream-out", "",
              "standalone stream-series JSON path (empty = don't write)");
    h.parse(argc, argv);

    // parse() applied --jobs (default: CHOPIN_JOBS env or hardware
    // concurrency): the parallel leg of the stream series. Remember it
    // before the serial leg overrides it.
    unsigned jobs_parallel = globalJobs();
    int repeat = std::max(1, static_cast<int>(h.flags().getInt("repeat")));
    std::string out_path = h.flags().getString("out");
    if (!out_path.empty())
        checkWritablePath(out_path, "--out");
    std::string stream_out_path = h.flags().getString("stream-out");
    if (!stream_out_path.empty())
        checkWritablePath(stream_out_path, "--stream-out");

    const Scheme schemes[] = {Scheme::SingleGpu, Scheme::Duplication,
                              Scheme::Gpupd, Scheme::Chopin,
                              Scheme::ChopinCompSched};

    TextTable table({"benchmark", "scheme", "ktris", "ns/frame", "Mtris/s"});
    std::vector<Measurement> measurements;

    for (const std::string &name : h.benchmarks()) {
        const FrameTrace &tr = h.trace(name);
        std::uint64_t tris = 0;
        for (const DrawCommand &cmd : tr.draws)
            tris += cmd.triangleCount();

        SystemConfig cfg;
        cfg.num_gpus = h.gpus();

        for (Scheme scheme : schemes) {
            Measurement m;
            m.bench = name;
            m.scheme = toString(scheme);
            m.tris = tris;
            m.ns = std::numeric_limits<double>::infinity();

            // Direct runScheme on purpose: this harness measures the wall
            // clock of the computation itself, so memoized/cached results
            // would defeat the measurement.
            FrameResult r;
            for (int rep = 0; rep < repeat; ++rep) {
                double ns = elapsedNs([&] {
                    r = runScheme( // chopin-lint: allow(bench-runscheme)
                        scheme, cfg, tr);
                });
                m.ns = std::min(m.ns, ns);
            }
            m.frame_hash = r.frame_hash;
            m.cycles = r.cycles;
            measurements.push_back(m);

            table.addRow({name, m.scheme, std::to_string(tris / 1000),
                          formatDouble(m.ns, 0),
                          formatDouble(mtrisPerSecond(tris, m.ns), 2)});
        }
    }
    h.emit(table);

    double event_queue_ns = measureEventQueueNs(repeat);

    // Quad-rasterizer series: native SIMD lanes vs the one-pixel scalar
    // reference, both instantiated from the same kernel. The fragment-hash
    // oracle runs first — a speedup between two non-identical computations
    // would be meaningless.
    const Viewport raster_vp{512, 512};
    const PixelRect raster_full{0, 0, raster_vp.width - 1,
                                raster_vp.height - 1};
    const std::vector<ScreenTriangle> soup =
        makeRasterSoup(raster_vp.width, raster_vp.height, 384);
    const RasterOracle oracle_scalar =
        rasterOracle<simd::ScalarLanes<1>>(soup, raster_vp, raster_full);
    const RasterOracle oracle_simd =
        rasterOracle<simd::NativeLanes>(soup, raster_vp, raster_full);
    chopin_assert(oracle_scalar.pixels == oracle_simd.pixels &&
                      oracle_scalar.hash == oracle_simd.hash,
                  "raster bench: ", simd::kNativeBackend,
                  " lanes are not bit-identical to the scalar reference");
    constexpr int raster_passes = 6;
    double raster_ns_scalar =
        rasterTimedNs<simd::ScalarLanes<1>>(soup, raster_vp, raster_full,
                                            raster_passes, repeat,
                                            oracle_scalar.pixels);
    double raster_ns_simd =
        rasterTimedNs<simd::NativeLanes>(soup, raster_vp, raster_full,
                                         raster_passes, repeat,
                                         oracle_scalar.pixels);
    double raster_px = static_cast<double>(oracle_scalar.pixels) *
                       raster_passes;
    double raster_ns_per_pixel_scalar =
        raster_px > 0.0 ? raster_ns_scalar / raster_px : 0.0;
    double raster_ns_per_pixel =
        raster_px > 0.0 ? raster_ns_simd / raster_px : 0.0;
    double raster_speedup =
        raster_ns_simd > 0.0 ? raster_ns_scalar / raster_ns_simd : 1.0;

    // Frame-stream series: a 16-frame orbit sequence through the stream
    // pipeline under all three stream schemes. Frames simulate
    // scenario-parallel on the pool, so the checksum oracle — full
    // registered-metric equality, including the sequence hash over every
    // frame's hash and completion tick — runs before any ratio is reported.
    // The hybrid AFR+SFR leg is the `stream_speedup` series gated in CI.
    constexpr std::uint32_t stream_frames = 16;
    SequenceParams stream_params;
    stream_params.num_frames = stream_frames;
    stream_params.path = CameraPath::Orbit;
    const SequenceTrace stream_seq =
        generateBenchmarkSequence("wolf", h.scale(), stream_params);
    std::uint64_t stream_tris = 0;
    for (const DrawCommand &cmd : stream_seq.base.draws)
        stream_tris += cmd.triangleCount();
    stream_tris *= stream_frames;

    SystemConfig stream_cfg;
    stream_cfg.num_gpus = h.gpus();
    const unsigned hybrid_groups = stream_cfg.num_gpus % 2 == 0 ? 2 : 1;

    struct StreamMeasurement
    {
        SequenceScheme scheme = SequenceScheme::HybridAfrSfr;
        double ns_serial = std::numeric_limits<double>::infinity();
        double ns_parallel = std::numeric_limits<double>::infinity();
        double speedup = 0.0;
        SequenceResult result; ///< serial leg (oracle-checked == parallel)
    };
    std::vector<StreamMeasurement> stream_runs;
    std::vector<double> stream_speedups;
    for (SequenceScheme scheme :
         {SequenceScheme::PureSfr, SequenceScheme::PureAfr,
          SequenceScheme::HybridAfrSfr}) {
        SequenceOptions opt;
        opt.scheme = scheme;
        opt.afr_groups = hybrid_groups;
        StreamMeasurement m;
        m.scheme = scheme;
        SequenceResult parallel;

        setGlobalJobs(1);
        for (int rep = 0; rep < repeat; ++rep) {
            double ns = elapsedNs([&] {
                m.result = runSequence(opt, stream_cfg, stream_seq);
            });
            m.ns_serial = std::min(m.ns_serial, ns);
        }
        setGlobalJobs(jobs_parallel);
        for (int rep = 0; rep < repeat; ++rep) {
            double ns = elapsedNs([&] {
                parallel = runSequence(opt, stream_cfg, stream_seq);
            });
            m.ns_parallel = std::min(m.ns_parallel, ns);
        }
        checkIdenticalStream(m.result, parallel,
                             std::string("stream/") + toString(scheme));
        m.speedup = m.ns_parallel > 0.0 ? m.ns_serial / m.ns_parallel : 1.0;
        stream_speedups.push_back(m.speedup);
        stream_runs.push_back(std::move(m));
    }
    const StreamMeasurement &hybrid_run = stream_runs.back();
    double stream_speedup = hybrid_run.speedup;
    double stream_frames_per_s =
        hybrid_run.ns_parallel > 0.0
            ? static_cast<double>(stream_frames) * 1e9 /
                  hybrid_run.ns_parallel
            : 0.0;

    std::cout << "\nevent queue: "
              << formatDouble(event_queue_ns, 1) << " ns/event\n"
              << "raster kernel: " << simd::kNativeBackend << " x"
              << simd::NativeLanes::width << ", "
              << formatDouble(raster_ns_per_pixel_scalar, 2)
              << " ns/px scalar, " << formatDouble(raster_ns_per_pixel, 2)
              << " ns/px simd, " << formatDouble(raster_speedup, 2)
              << "x speedup (" << oracle_scalar.pixels
              << " px/pass, hashes identical)\n"
              << "stream pipeline: " << stream_frames
              << "-frame wolf orbit on " << stream_cfg.num_gpus
              << " GPUs, hybrid " << hybrid_groups << "x"
              << stream_cfg.num_gpus / hybrid_groups << ": "
              << formatDouble(hybrid_run.ns_serial / 1e6, 2) << " ms j1, "
              << formatDouble(hybrid_run.ns_parallel / 1e6, 2) << " ms j"
              << jobs_parallel << ", "
              << formatDouble(stream_speedup, 2) << "x speedup, "
              << formatDouble(stream_frames_per_s, 1) << " frames/s, "
              << "micro-stutter "
              << formatDouble(hybrid_run.result.micro_stutter, 1)
              << " cycles\n";

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        chopin_assert(out.good(), "cannot write ", out_path);
        JsonWriter w(out);
        w.beginObject();
        w.field("scale", h.scale());
        w.field("gpus", h.gpus());
        w.field("jobs_parallel", jobs_parallel);
        w.field("repeat", repeat);
        w.field("event_queue_ns_per_event", event_queue_ns);
        w.field("raster_speedup", raster_speedup);
        w.field("raster_ns_per_pixel", raster_ns_per_pixel);
        w.field("raster_ns_per_pixel_scalar", raster_ns_per_pixel_scalar);
        w.field("raster_pixels", oracle_scalar.pixels);
        w.field("raster_backend", simd::kNativeBackend);
        w.field("raster_width",
                static_cast<std::uint64_t>(simd::NativeLanes::width));
        w.field("stream_speedup", stream_speedup);
        w.field("stream_frames",
                static_cast<std::uint64_t>(stream_frames));
        w.field("stream_frames_per_s", stream_frames_per_s);
        w.field("stream_frames_per_mcycle",
                hybrid_run.result.frames_per_mcycle);
        w.field("stream_micro_stutter", hybrid_run.result.micro_stutter);
        w.field("stream_sequence_hash", hybrid_run.result.sequence_hash);
        w.key("results");
        w.beginArray();
        for (const Measurement &m : measurements) {
            w.beginObject();
            w.field("bench", m.bench);
            w.field("scheme", m.scheme);
            w.field("tris", m.tris);
            w.field("ns_frame_serial", m.ns);
            w.field("mtris_per_s", mtrisPerSecond(m.tris, m.ns));
            w.field("frame_hash", m.frame_hash);
            w.field("cycles", m.cycles);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        w.finish();
        std::cout << "wrote " << out_path << "\n";
    }

    if (!stream_out_path.empty()) {
        // Standalone stream dump, same top-level contract as the main one
        // (results / jobs_parallel, plus gmean_speedup over the stream
        // schemes) so bench_json.py loads, reports, gates and --compares it
        // unchanged. One row per stream scheme; frame_hash carries the
        // sequence hash and cycles the stream makespan, so --compare
        // doubles as the cross-run (and cross-build) stream determinism
        // check.
        std::ofstream out(stream_out_path);
        chopin_assert(out.good(), "cannot write ", stream_out_path);
        JsonWriter w(out);
        w.beginObject();
        w.field("scale", h.scale());
        w.field("gpus", h.gpus());
        w.field("jobs_parallel", jobs_parallel);
        w.field("repeat", repeat);
        w.field("gmean_speedup", gmean(stream_speedups));
        w.field("stream_speedup", stream_speedup);
        w.field("stream_frames",
                static_cast<std::uint64_t>(stream_frames));
        w.field("stream_frames_per_s", stream_frames_per_s);
        w.field("stream_frames_per_mcycle",
                hybrid_run.result.frames_per_mcycle);
        w.field("stream_micro_stutter", hybrid_run.result.micro_stutter);
        w.field("stream_sequence_hash", hybrid_run.result.sequence_hash);
        w.key("results");
        w.beginArray();
        for (const StreamMeasurement &m : stream_runs) {
            w.beginObject();
            w.field("bench", "wolf-orbit" + std::to_string(stream_frames));
            w.field("scheme", toString(m.scheme));
            w.field("tris", stream_tris);
            w.field("ns_frame_serial",
                    m.ns_serial / static_cast<double>(stream_frames));
            w.field("ns_frame_parallel",
                    m.ns_parallel / static_cast<double>(stream_frames));
            w.field("mtris_per_s",
                    mtrisPerSecond(stream_tris, m.ns_parallel));
            w.field("speedup", m.speedup);
            w.field("frame_hash", m.result.sequence_hash);
            w.field("cycles", m.result.makespan);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        w.finish();
        std::cout << "wrote " << stream_out_path << "\n";
    }

    SystemConfig trace_cfg;
    trace_cfg.num_gpus = h.gpus();
    h.writeTraceSample(Scheme::ChopinCompSched, trace_cfg);
    return 0;
}
