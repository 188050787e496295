/**
 * @file
 * The three workloads. Each runs timed units until --seconds is used up
 * (at least one unit), checks every output against its reference, and
 * reports the end-to-end metrics; a traced run (SpanLog given) instead
 * runs one untraced and one traced unit plus the layer replays, and
 * reports the per-layer metrics.
 */

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <string>

#include "perfbench.hh"

namespace perfbench
{

using namespace chopin;

namespace
{

/** SingleGpu reference first, then runMainComparison()'s six schemes. */
constexpr Scheme frameSchemes[] = {
    Scheme::SingleGpu,       Scheme::Duplication, Scheme::Gpupd,
    Scheme::GpupdIdeal,      Scheme::Chopin,      Scheme::ChopinCompSched,
    Scheme::ChopinIdeal,
};
constexpr SequenceScheme streamSchemes[] = {
    SequenceScheme::PureSfr,
    SequenceScheme::PureAfr,
    SequenceScheme::HybridAfrSfr,
};

/** The repository oracle's per-component image tolerance. */
constexpr float imageTolerance = 2e-4f;
/** Host threads: scenario, intra-frame or frame-level parallelism. */
constexpr unsigned hostJobs = 4;
/** Set-ups per run (at least): setup_s is their median. */
constexpr std::size_t minSetups = 3;
/** More set-ups while they total less than this many seconds. */
constexpr double minSetupSeconds = 1.0;
/** The paper's Fig. 13 CHOPIN+CompSched gmean over duplication. */
constexpr double paperSpeedup = 1.25;

std::vector<std::string>
benchNames(bool tiny)
{
    if (tiny)
        return {"cod2", "grid"};
    std::vector<std::string> names;
    for (const BenchmarkProfile &p : allBenchmarkProfiles())
        names.push_back(p.name);
    return names;
}

/**
 * Run @p unit at least @p min_units times, then again while one more unit
 * of the mean length still fits in @p seconds.
 */
template <typename F>
void
repeatUnits(double seconds, int min_units, F &&unit)
{
    Clock::time_point t0 = Clock::now();
    for (int n = 1;; ++n) {
        unit();
        double elapsed = secondsSince(t0);
        if (n >= min_units && elapsed + elapsed / n > seconds)
            break;
    }
}

double
gmean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** Host-time samples of the timed units, reduced to end-to-end metrics. */
struct Samples
{
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> frames_per_s;
    std::vector<double> frame_ms;

    /** Time @p setup until there are enough samples for a median. */
    template <typename F>
    void
    setups(F &&setup)
    {
        while (setup_s.size() < minSetups ||
               sum(setup_s) < minSetupSeconds) {
            Clock::time_point t0 = Clock::now();
            setup();
            setup_s.push_back(secondsSince(t0));
        }
    }

    /** The latest unit's wall time; 0 when every unit failed. */
    double
    lastWall() const
    {
        return wall_s.empty() ? 0.0 : wall_s.back();
    }

    void
    unit(double wall, std::size_t frames)
    {
        wall_s.push_back(wall);
        frames_per_s.push_back(static_cast<double>(frames) / wall);
    }

    void
    report(Report &rep, double sim_speedup, double sim_fpm) const
    {
        rep.set("setup_s", quantile(setup_s, 0.5), "s");
        rep.set("wall_s", quantile(wall_s, 0.5), "s");
        rep.set("frames_per_s", quantile(frames_per_s, 0.5), "1/s");
        rep.set("frame_ms_p50", quantile(frame_ms, 0.5), "ms");
        // A percentile is reported only with at least ten samples beyond
        // it; with fewer (one sample per unit) p90 falls back to p50.
        rep.set("frame_ms_p90",
                quantile(frame_ms, frame_ms.size() >= 100 ? 0.9 : 0.5),
                "ms");
        rep.set("peak_rss_mb", peakRssMb(), "MiB");
        rep.set("sim_speedup_gmean", sim_speedup, "x");
        rep.set("sim_stream_frames_per_mcycle", sim_fpm, "1/Mcycle");
        std::string walls;
        for (double w : wall_s)
            walls += " " + std::to_string(w);
        rep.note("unit wall_s:" + walls + "; set-ups: " +
                 std::to_string(setup_s.size()) + ", frame_ms samples: " +
                 std::to_string(frame_ms.size()));
    }
};

/** Every per-layer metric, zero until a workload exercising it sets it. */
void
declarePerLayer(Report &rep)
{
    for (const char *n : {"trace.generate_ms", "trace.fingerprint_ms"})
        rep.set(n, 0.0, "ms");
    for (const char *n : {"trace.draws", "trace.triangles"})
        rep.set(n, 0.0, "count");
    rep.set("core.prefetch_s", 0.0, "s");
    rep.set("core.scenarios_computed", 0.0, "count");
    rep.set("core.parallel_efficiency", 0.0, "ratio");
    rep.set("core.idle_s", 0.0, "s");
    for (Scheme s : frameSchemes)
        rep.set(std::string(schemeSpan(s)) + "_ms", 0.0, "ms");
    for (SequenceScheme s : streamSchemes)
        rep.set(std::string(streamSpan(s)) + "_ms", 0.0, "ms");
    rep.set("util.intra_frame_speedup", 0.0, "x");
    reportLayers(LayerTotals{}, SpanLog{}, rep);
    ModelTotals{}.report(rep);
    rep.set("tracing.overhead_s", 0.0, "s");
}

/** sfr.<scheme>_ms: mean self ms per span, per @p frames_per_span. */
void
reportSchemeSpans(const SpanLog &log, Report &rep, double frames_per_span)
{
    std::map<std::string, double> self = log.selfSeconds();
    std::map<std::string, std::size_t> n = log.counts();
    std::vector<std::string> names;
    for (Scheme s : frameSchemes)
        names.push_back(schemeSpan(s));
    for (SequenceScheme s : streamSchemes)
        names.push_back(streamSpan(s));
    for (const std::string &name : names)
        if (n[name] > 0)
            rep.set(name + "_ms",
                    self[name] * 1e3 /
                        (static_cast<double>(n[name]) * frames_per_span),
                    "ms");
}

std::uint64_t
fingerprint(const FrameTrace &t)
{
    return traceFingerprint(t);
}

std::uint64_t
fingerprint(const SequenceTrace &s)
{
    return sequenceFingerprint(s);
}

const FrameTrace &
baseTrace(const FrameTrace &t)
{
    return t;
}

const FrameTrace &
baseTrace(const SequenceTrace &s)
{
    return s.base;
}

/**
 * The trace layer: generate the workload's @p n traces (or sequences)
 * again with @p make, under trace.generate / trace.fingerprint spans.
 */
template <typename Make>
void
measureTraceLayer(std::size_t n, Make &&make, SpanLog &log, Report &rep)
{
    std::uint64_t draws = 0;
    std::uint64_t triangles = 0;
    for (std::size_t i = 0; i < n; ++i) {
        decltype(make(i)) t;
        {
            Scope s(&log, "trace.generate", static_cast<int>(i));
            t = make(i);
        }
        {
            Scope s(&log, "trace.fingerprint", static_cast<int>(i));
            fingerprint(t);
        }
        draws += baseTrace(t).draws.size();
        triangles += baseTrace(t).totalTriangles();
    }
    std::map<std::string, double> self = log.selfSeconds();
    rep.set("trace.generate_ms", self["trace.generate"] * 1e3, "ms");
    rep.set("trace.fingerprint_ms", self["trace.fingerprint"] * 1e3, "ms");
    rep.set("trace.draws", static_cast<double>(draws), "count");
    rep.set("trace.triangles", static_cast<double>(triangles), "count");
}

void
checkImage(const Image &ref, const Image &img, const std::string &what,
           Report &rep)
{
    ImageDiff d = compareImages(ref, img, imageTolerance);
    if (d.differing_pixels < 0)
        rep.fail(what + ": image size differs from the reference");
    else if (d.differing_pixels > 0)
        rep.fail(what + ": " + std::to_string(d.differing_pixels) +
                 " pixels differ from the reference (max " +
                 std::to_string(d.max_abs_diff) + ")");
}

/** Same simulated outcome in every unit of a run, or a failure. */
void
checkDigest(std::uint64_t &expected, std::uint64_t got, Report &rep)
{
    if (expected == 0)
        expected = got;
    else if (expected != got)
        rep.fail("model digest changed between units of one run");
}

} // namespace

void
runSweepCold(const Options &opt, Report &rep, SpanLog *log)
{
    const std::vector<std::string> benches = benchNames(opt.tiny);
    const SystemConfig cfg;
    std::vector<Scenario> grid;
    for (const std::string &b : benches)
        for (Scheme s : frameSchemes)
            grid.push_back({s, b, cfg});

    SweepOptions sweep;
    sweep.sweep_jobs = hostJobs;
    sweep.scale = opt.tiny ? 64 : 1;
    sweep.cache_read = false; // and no cache_dir: memo only, cold

    Samples samples;
    ModelTotals model;
    std::uint64_t digest = 0;
    double sim_speedup = 0.0;
    double sim_fpm = 0.0;

    // Set-up: runner construction plus trace generation by bench name.
    auto makeRunner = [&] {
        auto runner = std::make_unique<SweepRunner>(sweep);
        for (const std::string &b : benches)
            runner->trace(b);
        return runner;
    };

    // One unit: a fresh runner computes the whole grid cold.
    auto unit = [&](SpanLog *ulog) {
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<SweepRunner> runner = makeRunner();
        samples.setup_s.push_back(secondsSince(t0));

        rep.attempted += grid.size();
        try {
            Scope s(ulog, "core.prefetch");
            t0 = Clock::now();
            runner->prefetch(grid);
            double wall = secondsSince(t0);
            samples.unit(wall, grid.size());
            samples.frame_ms.push_back(wall * 1e3 /
                                       static_cast<double>(grid.size()));
        } catch (const std::exception &e) {
            rep.fail(std::string("prefetch: ") + e.what(), grid.size());
            return std::unique_ptr<SweepRunner>();
        }
        SweepStats st = runner->stats();
        if (st.computed != grid.size())
            rep.fail("sweep was not cold: computed " +
                         std::to_string(st.computed) + " of " +
                         std::to_string(grid.size()),
                     grid.size() - std::min<std::size_t>(grid.size(),
                                                         st.computed));

        model = ModelTotals{};
        std::vector<double> speedups;
        double ccs_cycles = 0.0;
        for (const std::string &b : benches) {
            const FrameResult &ref = runner->run(Scheme::SingleGpu, b, cfg);
            model.addFrame(ref);
            for (Scheme s : frameSchemes) {
                if (s == Scheme::SingleGpu)
                    continue;
                const FrameResult &r = runner->run(s, b, cfg);
                checkImage(ref.image, r.image, b + "/" + toString(s), rep);
                model.addFrame(r);
            }
            const FrameResult &dup = runner->run(Scheme::Duplication, b, cfg);
            const FrameResult &ccs =
                runner->run(Scheme::ChopinCompSched, b, cfg);
            speedups.push_back(speedupOver(dup, ccs));
            ccs_cycles += static_cast<double>(ccs.cycles);
        }
        sim_speedup = gmean(speedups);
        sim_fpm = static_cast<double>(benches.size()) * 1e6 / ccs_cycles;
        checkDigest(digest, model.digest.value(), rep);
        return runner;
    };

    if (log == nullptr) {
        repeatUnits(opt.seconds, 1, [&] { unit(nullptr); });
        samples.setups(makeRunner);
        samples.report(rep, sim_speedup, sim_fpm);
        rep.note("sim_speedup_gmean " + std::to_string(sim_speedup) +
                 "x CHOPIN+CompSched over Duplication (paper: " +
                 std::to_string(paperSpeedup) + "x)");
        rep.note("model digest " + model.digest.hex());
        return;
    }

    declarePerLayer(rep);
    unit(nullptr);
    const double untraced = samples.lastWall();

    measureTraceLayer(
        benches.size(),
        [&](std::size_t i) {
            return generateBenchmark(benches[i], sweep.scale);
        },
        *log, rep);

    std::unique_ptr<SweepRunner> runner = unit(log);
    if (!runner)
        return;
    const double traced = samples.lastWall();

    // Each cell again, serially, as the sweep runs it (inner rendering
    // forced serial): the per-scenario host time the pool had to pack.
    double serial = 0.0;
    for (const Scenario &c : grid) {
        int frame = static_cast<int>(
            std::find(benches.begin(), benches.end(), c.bench) -
            benches.begin());
        rep.attempted += 1;
        try {
            Clock::time_point t0 = Clock::now();
            FrameResult r;
            {
                Scope s(log, schemeSpan(c.scheme), frame);
                ScenarioRegion region;
                r = runScheme(c.scheme, c.cfg, runner->trace(c.bench));
            }
            serial += secondsSince(t0);
            if (!metricsEqual<FrameAccounting>(r, runner->run(c)))
                rep.fail(c.bench + "/" + toString(c.scheme) +
                         ": serial rerun differs from the sweep");
        } catch (const std::exception &e) {
            rep.fail(c.bench + "/" + toString(c.scheme) + ": " + e.what());
        }
    }
    reportSchemeSpans(*log, rep, 1.0);
    rep.set("core.prefetch_s", traced, "s");
    rep.set("core.scenarios_computed",
            static_cast<double>(runner->stats().computed), "count");
    rep.set("core.parallel_efficiency", serial / (traced * hostJobs),
            "ratio");
    rep.set("core.idle_s", traced * hostJobs - serial, "s");

    setGlobalJobs(1);
    LayerTotals layers;
    for (std::size_t i = 0; i < benches.size(); ++i)
        replayLayers(runner->trace(benches[i]), static_cast<int>(i), cfg,
                     runner->run(Scheme::SingleGpu, benches[i], cfg), *log,
                     layers, rep);
    reportLayers(layers, *log, rep);
    model.report(rep);
    rep.set("tracing.overhead_s", traced - untraced, "s");
    rep.note("model digest " + model.digest.hex());
}

void
runFrameLatency(const Options &opt, Report &rep, SpanLog *log)
{
    const std::vector<std::string> benches = benchNames(opt.tiny);
    const int scale = opt.tiny ? 64 : 4;
    const SystemConfig cfg;
    constexpr std::size_t numSchemes = std::size(frameSchemes);

    Samples samples;
    std::vector<FrameTrace> traces;
    samples.setups([&] {
        traces.clear();
        for (const std::string &b : benches)
            traces.push_back(generateTrace(seededProfile(b, scale, opt.seed)));
    });
    // Frames run one at a time on one thread: at --jobs=4 the intra-frame
    // fan-out waits on every stolen vCPU at each per-draw barrier, so on a
    // shared VM its wall time swings far beyond any usable bound. The
    // traced run still measures the fan-out (util.intra_frame_speedup).
    setGlobalJobs(1);

    // Per cell: the first pass's hashes, which every later pass must
    // reproduce; per bench: the SingleGpu accounting for the replays.
    std::vector<std::uint64_t> hashes(benches.size() * numSchemes, 0);
    std::vector<FrameAccounting> refs(benches.size());
    ModelTotals model;
    std::uint64_t digest = 0;
    double sim_speedup = 0.0;
    double sim_fpm = 0.0;
    bool first_pass = true;

    // One unit: a pass over every cell, one runScheme call per frame.
    auto unit = [&](SpanLog *ulog) {
        double wall = 0.0;
        std::size_t frames = 0;
        std::vector<double> speedups;
        double ccs_cycles = 0.0;
        for (std::size_t b = 0; b < benches.size(); ++b) {
            Image ref;
            Tick dup_cycles = 0;
            for (std::size_t k = 0; k < numSchemes; ++k) {
                const Scheme s = frameSchemes[k];
                const std::string what = benches[b] + "/" + toString(s);
                rep.attempted += 1;
                FrameResult r;
                try {
                    Clock::time_point t0 = Clock::now();
                    {
                        Scope span(ulog, schemeSpan(s), static_cast<int>(b));
                        r = runScheme(s, cfg, traces[b]);
                    }
                    double dt = secondsSince(t0);
                    wall += dt;
                    frames += 1;
                    samples.frame_ms.push_back(dt * 1e3);
                } catch (const std::exception &e) {
                    rep.fail(what + ": " + e.what());
                    continue;
                }
                std::uint64_t &h = hashes[b * numSchemes + k];
                if (first_pass) {
                    h = r.frame_hash;
                    model.addFrame(r);
                } else if (h != r.frame_hash) {
                    rep.fail(what + ": frame_hash differs between passes");
                }
                if (s == Scheme::SingleGpu) {
                    refs[b] = r;
                    ref = std::move(r.image);
                    continue;
                }
                checkImage(ref, r.image, what, rep);
                if (s == Scheme::Duplication)
                    dup_cycles = r.cycles;
                if (s == Scheme::ChopinCompSched) {
                    speedups.push_back(static_cast<double>(dup_cycles) /
                                       static_cast<double>(r.cycles));
                    ccs_cycles += static_cast<double>(r.cycles);
                }
            }
        }
        if (first_pass) {
            sim_speedup = gmean(speedups);
            sim_fpm = static_cast<double>(benches.size()) * 1e6 / ccs_cycles;
            checkDigest(digest, model.digest.value(), rep);
            first_pass = false;
        }
        if (frames > 0)
            samples.unit(wall, frames);
    };

    if (log == nullptr) {
        // At least two passes, so frame hashes are compared across passes.
        repeatUnits(opt.seconds, 2, [&] { unit(nullptr); });
        samples.report(rep, sim_speedup, sim_fpm);
        rep.note("model digest " + model.digest.hex());
        return;
    }

    declarePerLayer(rep);
    unit(nullptr);
    const double untraced = samples.lastWall();

    measureTraceLayer(
        benches.size(),
        [&](std::size_t i) {
            return generateTrace(seededProfile(benches[i], scale, opt.seed));
        },
        *log, rep);

    unit(log);
    const double traced = samples.lastWall();
    reportSchemeSpans(*log, rep, 1.0);

    // The same frames with intra-frame fan-out on.
    setGlobalJobs(hostJobs);
    double fanned = 0.0;
    for (std::size_t b = 0; b < benches.size(); ++b)
        for (std::size_t k = 0; k < numSchemes; ++k) {
            rep.attempted += 1;
            try {
                Clock::time_point t0 = Clock::now();
                FrameResult r = runScheme(frameSchemes[k], cfg, traces[b]);
                fanned += secondsSince(t0);
                if (r.frame_hash != hashes[b * numSchemes + k])
                    rep.fail(benches[b] + "/" + toString(frameSchemes[k]) +
                             ": frame_hash differs at --jobs=" +
                             std::to_string(hostJobs));
            } catch (const std::exception &e) {
                rep.fail(benches[b] + ": " + e.what());
            }
        }
    setGlobalJobs(1);
    rep.set("util.intra_frame_speedup", traced / fanned, "x");

    LayerTotals layers;
    for (std::size_t b = 0; b < benches.size(); ++b)
        replayLayers(traces[b], static_cast<int>(b), cfg, refs[b], *log,
                     layers, rep);
    reportLayers(layers, *log, rep);
    model.report(rep);
    rep.set("tracing.overhead_s", traced - untraced, "s");
    rep.note("model digest " + model.digest.hex());
}

void
runStream(const Options &opt, Report &rep, SpanLog *log)
{
    const std::vector<std::string> benches = {"cry", "grid"};
    const int scale = opt.tiny ? 64 : 2;
    SequenceParams params;
    params.num_frames = opt.tiny ? 4 : 16;
    params.path = CameraPath::Orbit;
    constexpr unsigned hybridGroups = 2;
    const SystemConfig cfg;

    Samples samples;
    std::vector<SequenceTrace> seqs;
    samples.setups([&] {
        seqs.clear();
        for (const std::string &b : benches)
            seqs.push_back(
                generateSequence(seededProfile(b, scale, opt.seed), params));
    });
    setGlobalJobs(hostJobs);

    const std::size_t n = params.num_frames;
    // Per sequence and scheme: sequence_hash of the first unit; per
    // sequence: the PureAfr (SingleGpu) frames for the replays.
    std::vector<std::uint64_t> seq_hashes;
    std::vector<std::vector<FrameAccounting>> afr_frames(seqs.size());
    ModelTotals model;
    std::uint64_t digest = 0;
    double sim_speedup = 0.0;
    double sim_fpm = 0.0;

    // One unit: the Section VI-H comparison on every sequence.
    auto unit = [&] {
        double wall = 0.0;
        std::size_t frames = 0;
        std::vector<double> speedups;
        std::vector<double> fpm;
        ModelTotals m;
        const bool first = seq_hashes.empty();
        for (std::size_t si = 0; si < seqs.size(); ++si) {
            rep.attempted += std::size(streamSchemes) * n;
            std::vector<SequenceResult> res;
            try {
                Clock::time_point t0 = Clock::now();
                res = runStreamComparison(cfg, seqs[si], hybridGroups,
                                          Scheme::ChopinCompSched);
                wall += secondsSince(t0);
                frames += std::size(streamSchemes) * n;
            } catch (const std::exception &e) {
                rep.fail(benches[si] + " stream: " + e.what(),
                         std::size(streamSchemes) * n);
                continue;
            }
            const SequenceResult &afr = res[1];
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t k : {0u, 2u})
                    checkImage(afr.frames[i].image, res[k].frames[i].image,
                               benches[si] + " frame " + std::to_string(i) +
                                   " " + toString(res[k].scheme),
                               rep);
            for (std::size_t k = 0; k < res.size(); ++k) {
                m.addSequence(res[k]);
                if (first)
                    seq_hashes.push_back(res[k].sequence_hash);
            }
            if (first)
                for (const FrameResult &f : afr.frames)
                    afr_frames[si].push_back(f);
            speedups.push_back(static_cast<double>(res[0].makespan) /
                               static_cast<double>(res[2].makespan));
            fpm.push_back(res[2].frames_per_mcycle);
        }
        if (frames > 0) {
            samples.unit(wall, frames);
            samples.frame_ms.push_back(wall * 1e3 /
                                       static_cast<double>(frames));
        }
        model = m;
        sim_speedup = gmean(speedups);
        sim_fpm = gmean(fpm);
        checkDigest(digest, model.digest.value(), rep);
    };

    if (log == nullptr) {
        repeatUnits(opt.seconds, 1, unit);
        samples.report(rep, sim_speedup, sim_fpm);
        rep.note("model digest " + model.digest.hex());
        return;
    }

    declarePerLayer(rep);
    unit();
    const double untraced = samples.lastWall();
    // A failed unit leaves no references for the reruns and replays.
    if (seq_hashes.size() != seqs.size() * std::size(streamSchemes))
        return;

    measureTraceLayer(
        benches.size(),
        [&](std::size_t i) {
            return generateSequence(
                seededProfile(benches[i], scale, opt.seed), params);
        },
        *log, rep);

    // The traced unit: runStreamComparison's three runSequence calls,
    // one span each.
    double traced = 0.0;
    for (std::size_t si = 0; si < seqs.size(); ++si)
        for (std::size_t k = 0; k < std::size(streamSchemes); ++k) {
            SequenceOptions so;
            so.scheme = streamSchemes[k];
            so.intra_scheme = Scheme::ChopinCompSched;
            so.afr_groups = hybridGroups;
            rep.attempted += n;
            try {
                Clock::time_point t0 = Clock::now();
                SequenceResult r;
                {
                    Scope s(log, streamSpan(so.scheme), static_cast<int>(si));
                    r = runSequence(so, cfg, seqs[si]);
                }
                traced += secondsSince(t0);
                if (r.sequence_hash !=
                    seq_hashes[si * std::size(streamSchemes) + k])
                    rep.fail(benches[si] + " " + toString(so.scheme) +
                                 ": traced rerun differs",
                             n);
            } catch (const std::exception &e) {
                rep.fail(benches[si] + " stream: " + e.what(), n);
            }
        }
    reportSchemeSpans(*log, rep, static_cast<double>(n));

    setGlobalJobs(1);
    LayerTotals layers;
    FrameTrace scratch;
    for (std::size_t si = 0; si < seqs.size(); ++si)
        for (std::size_t i = 0; i < n; ++i) {
            seqs[si].materializeFrame(i, scratch);
            replayLayers(scratch, static_cast<int>(si * n + i), cfg,
                         afr_frames[si][i], *log, layers, rep);
        }
    reportLayers(layers, *log, rep);
    model.report(rep);
    rep.set("tracing.overhead_s", traced - untraced, "s");
    rep.note("model digest " + model.digest.hex());
}

} // namespace perfbench
