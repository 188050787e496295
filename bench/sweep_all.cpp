/**
 * @file
 * sweep_all: the whole figure suite as one declared grid on the sweep
 * engine (core/sweep.hh) — "reproduce the paper in one cached, parallel
 * invocation".
 *
 * Builds the union of every figNN / table / ablation harness grid (Figs.
 * 2-22, scheduler-traffic and ablation tables), then runs it twice
 * in-process:
 *
 *   1. cold-serial — a fresh runner, scenarios strictly serial, disk-cache
 *      reads disabled (computes everything; stores into the cache). This is
 *      the wall-clock baseline "one figure at a time" corresponds to.
 *   2. warm-parallel — a second fresh runner on the same cache directory,
 *      scenario-parallel (`--sweep-jobs` wide), reading the entries phase 1
 *      stored: every scenario is a cache hit, so this phase replays the
 *      cache and computes nothing.
 *
 * Every FrameResult of phase 2 is asserted bit-identical to its phase 1
 * counterpart — hashes, cycles, breakdown, traffic, totals, stage-busy
 * counters, group/scheduler statistics, draw timings and the full image —
 * so cache reuse and scenario parallelism are exercised against the
 * determinism oracle on every run.
 *
 * Like perf_frame, this harness measures *host* wall clock (std::chrono);
 * the simulated results are the correctness oracle, not the metric. Writes
 * a JSON summary (default BENCH_sweep.json) consumed by
 * tools/bench_json.py. Its --min-speedup gate in CI compares phase 2 with
 * phase 1, so it is a cache-replay gate: it measures how much faster a
 * 100%-hit replay is than computing, not how fast the sweep runs. The
 * cold sweep's own wall clock is perfbench's `sweep-cold` workload.
 */

#include "common.hh"

#include <chrono>
#include <cstring>
#include <fstream>

#include "stats/metrics.hh"
#include "stats/report.hh"

namespace
{

using namespace chopin;
using namespace chopin::bench;

/** One figure's declared scenario grid. */
struct FigureSpec
{
    std::string name;
    std::vector<Scenario> grid;
};

SystemConfig
baseConfig(unsigned gpus)
{
    SystemConfig cfg;
    cfg.num_gpus = gpus;
    return cfg;
}

/** The full evaluation suite: one FigureSpec per bench harness grid. */
std::vector<FigureSpec>
buildSuite(const std::vector<std::string> &benches, unsigned gpus)
{
    std::vector<FigureSpec> figures;
    auto cross = [&](const std::string &name,
                     const std::vector<Scheme> &schemes,
                     const std::vector<SystemConfig> &cfgs) {
        FigureSpec fig{name, {}};
        for (const SystemConfig &cfg : cfgs)
            for (Scheme s : schemes)
                for (const std::string &bench : benches)
                    fig.grid.push_back(Scenario{s, bench, cfg});
        figures.push_back(std::move(fig));
    };

    const std::vector<Scheme> main_schemes = {
        Scheme::Duplication,     Scheme::Gpupd, Scheme::GpupdIdeal,
        Scheme::Chopin,          Scheme::ChopinCompSched,
        Scheme::ChopinIdeal};

    // Fig. 2 / Table III: duplication across GPU counts (1 covers the
    // single-GPU geometry-fraction bars).
    {
        std::vector<SystemConfig> cfgs;
        for (unsigned g : {1u, 2u, 4u, 8u})
            cfgs.push_back(baseConfig(g));
        cross("fig02_geometry_fraction", {Scheme::Duplication}, cfgs);
    }
    // Fig. 4: GPUpd overheads across GPU counts.
    {
        std::vector<SystemConfig> cfgs;
        for (unsigned g : {2u, 4u, 8u})
            cfgs.push_back(baseConfig(g));
        cross("fig04_gpupd_overheads", {Scheme::Gpupd}, cfgs);
    }
    cross("fig05_ideal_speedup",
          {Scheme::Duplication, Scheme::Gpupd, Scheme::GpupdIdeal,
           Scheme::ChopinIdeal},
          {baseConfig(gpus)});
    cross("fig08_round_robin",
          {Scheme::Duplication, Scheme::Gpupd, Scheme::ChopinRoundRobin,
           Scheme::ChopinCompSched},
          {baseConfig(gpus)});
    cross("fig09_triangle_rate", {Scheme::SingleGpu}, {baseConfig(gpus)});
    cross("fig13_performance", main_schemes, {baseConfig(gpus)});
    cross("fig14_breakdown",
          {Scheme::Duplication, Scheme::Gpupd, Scheme::Chopin,
           Scheme::ChopinCompSched, Scheme::ChopinIdeal},
          {baseConfig(gpus)});
    cross("fig15_depth_test",
          {Scheme::Duplication, Scheme::ChopinCompSched},
          {baseConfig(gpus)});
    // Fig. 16: hypothetical-workload cull-retention sweep (ut3, or the
    // single selected benchmark, like the standalone harness).
    {
        FigureSpec fig{"fig16_culled_retention", {}};
        std::string bench =
            benches.size() == 1 ? benches[0] : std::string("ut3");
        fig.grid.push_back(
            Scenario{Scheme::Duplication, bench, baseConfig(gpus)});
        for (int pct = 0; pct <= 40; pct += 5) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.cull_retention = static_cast<double>(pct) / 100.0;
            fig.grid.push_back(
                Scenario{Scheme::ChopinCompSched, bench, cfg});
        }
        figures.push_back(std::move(fig));
    }
    cross("fig17_composition_traffic", {Scheme::ChopinCompSched},
          {baseConfig(gpus)});
    // Fig. 18: scheduler-feedback staleness sweep.
    {
        std::vector<SystemConfig> cfgs{baseConfig(gpus)};
        for (std::uint64_t interval : {1ull, 256ull, 512ull, 1024ull}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.sched_update_tris = interval;
            cfgs.push_back(cfg);
        }
        cross("fig18_sched_update_freq",
              {Scheme::Duplication, Scheme::Chopin, Scheme::ChopinCompSched,
               Scheme::ChopinIdeal},
              cfgs);
    }
    // Fig. 19: GPU-count sweep.
    {
        std::vector<SystemConfig> cfgs;
        for (unsigned g : {2u, 4u, 8u, 16u})
            cfgs.push_back(baseConfig(g));
        cross("fig19_gpu_count", main_schemes, cfgs);
    }
    // Fig. 20: bandwidth sweep.
    {
        std::vector<SystemConfig> cfgs;
        for (double bw : {16.0, 32.0, 64.0, 128.0}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.link.bytes_per_cycle = bw;
            cfgs.push_back(cfg);
        }
        cross("fig20_bandwidth", main_schemes, cfgs);
    }
    // Fig. 21: latency sweep.
    {
        std::vector<SystemConfig> cfgs;
        for (Tick lat : {Tick{100}, Tick{200}, Tick{300}, Tick{400}}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.link.latency = lat;
            cfgs.push_back(cfg);
        }
        cross("fig21_latency", main_schemes, cfgs);
    }
    // Fig. 22: composition-group threshold sweep.
    {
        std::vector<SystemConfig> cfgs{baseConfig(gpus)};
        for (std::uint64_t thr : {256ull, 1024ull, 4096ull, 16384ull}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.group_threshold = thr;
            cfgs.push_back(cfg);
        }
        cross("fig22_group_threshold",
              {Scheme::Duplication, Scheme::Chopin, Scheme::ChopinCompSched,
               Scheme::ChopinIdeal},
              cfgs);
    }
    // Scheduler-traffic table (Section VI-D).
    {
        std::vector<SystemConfig> cfgs;
        for (std::uint64_t interval : {1ull, 1024ull}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.sched_update_tris = interval;
            cfgs.push_back(cfg);
        }
        cross("table_sched_traffic", {Scheme::ChopinCompSched}, cfgs);
    }
    // Ablations: composition payload, GPUpd batching, tile assignment.
    {
        std::vector<SystemConfig> cfgs{baseConfig(gpus)};
        for (CompPayload p :
             {CompPayload::WrittenPixels, CompPayload::SubTiles,
              CompPayload::FullTiles}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.comp_payload = p;
            cfgs.push_back(cfg);
        }
        cross("ablation_comp_payload",
              {Scheme::Duplication, Scheme::ChopinCompSched}, cfgs);
    }
    {
        std::vector<SystemConfig> cfgs{baseConfig(gpus)};
        for (std::uint64_t batch : {512ull, 2048ull, 8192ull})
            for (bool runahead : {false, true}) {
                SystemConfig cfg = baseConfig(gpus);
                cfg.gpupd_batch_prims = batch;
                cfg.gpupd_runahead = runahead;
                cfgs.push_back(cfg);
            }
        cross("ablation_gpupd_batching",
              {Scheme::Duplication, Scheme::Gpupd}, cfgs);
    }
    {
        std::vector<SystemConfig> cfgs;
        for (TileAssignment policy :
             {TileAssignment::Interleaved, TileAssignment::Blocked}) {
            SystemConfig cfg = baseConfig(gpus);
            cfg.tile_assignment = policy;
            cfgs.push_back(cfg);
        }
        cross("ablation_tile_assignment",
              {Scheme::Duplication, Scheme::Gpupd, Scheme::ChopinCompSched},
              cfgs);
    }
    return figures;
}

template <typename Fn>
double
elapsedNs(const Fn &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/** Assert two results of one scenario are bit-identical: every registered
 *  metric (via the registry), plus scheme, draw timings and the image. */
void
checkIdentical(const FrameResult &a, const FrameResult &b,
               const std::string &what)
{
    chopin_assert(a.scheme == b.scheme, what, ": scheme differs");
    if (!metricsEqual(static_cast<const FrameAccounting &>(a),
                      static_cast<const FrameAccounting &>(b))) {
        std::string names;
        for (const std::string &n :
             metricsDiff(static_cast<const FrameAccounting &>(a),
                         static_cast<const FrameAccounting &>(b)))
            names += (names.empty() ? "" : ", ") + n;
        chopin_assert(false, what,
                      ": metrics differ between cold and warm runs: ",
                      names);
    }
    chopin_assert(a.draw_timings.size() == b.draw_timings.size(),
                  what, ": draw-timing record count differs");
    for (std::size_t i = 0; i < a.draw_timings.size(); ++i)
        chopin_assert(metricsEqual(a.draw_timings[i], b.draw_timings[i]),
                      what, ": draw timing record ", i, " differs");
    chopin_assert(a.image.width() == b.image.width() &&
                      a.image.height() == b.image.height(),
                  what, ": image dimensions differ");
    chopin_assert(a.image.data().size() == b.image.data().size() &&
                      std::memcmp(a.image.data().data(),
                                  b.image.data().data(),
                                  a.image.data().size() * sizeof(Color)) ==
                          0,
                  what, ": image pixels differ");
}

struct FigureTimes
{
    std::string name;
    std::size_t scenarios = 0;
    std::uint64_t tris = 0;
    double cold_ns = 0.0;
    double warm_ns = 0.0;
    std::uint64_t hash_mix = 0; ///< XOR of scenario frame hashes
    std::uint64_t cycles = 0;   ///< sum of scenario cycle counts
};

void
emitStats(JsonWriter &w, const char *label, const SweepStats &s)
{
    w.key(label);
    w.beginObject();
    w.field("computed", s.computed);
    w.field("memo_hits", s.memo_hits);
    w.field("disk_hits", s.disk_hits);
    w.field("disk_rejected", s.disk_rejected);
    w.field("stored", s.stored);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    Harness h("sweep_all: the whole figure suite, scenario-parallel with a "
              "shared result cache",
              8);
    h.addFlag("out", "BENCH_sweep.json",
              "JSON summary path (empty = don't write)");
    h.parse(argc, argv);

    std::string cache_dir = h.flags().getString("cache");
    if (cache_dir.empty())
        cache_dir = "BENCH_sweep.cache"; // the two phases must share a cache
    std::string out_path = h.flags().getString("out");
    if (!out_path.empty())
        checkWritablePath(out_path, "--out");
    unsigned inner_jobs =
        static_cast<unsigned>(h.flags().getInt("jobs"));
    unsigned sweep_jobs =
        static_cast<unsigned>(h.flags().getInt("sweep-jobs"));

    std::vector<FigureSpec> figures = buildSuite(h.benchmarks(), h.gpus());
    std::size_t total_scenarios = 0;
    for (const FigureSpec &fig : figures)
        total_scenarios += fig.grid.size();

    std::vector<FigureTimes> times;

    // --- Phase 1: cold serial (the baseline) -----------------------------
    // Fresh runner, scenarios and stream frames serial, cache reads
    // disabled; everything is computed and stored.
    setGlobalJobs(1);
    SweepOptions cold_opts;
    cold_opts.sweep_jobs = 1;
    cold_opts.scale = h.scale();
    cold_opts.cache_dir = cache_dir;
    cold_opts.cache_read = false;
    SweepRunner cold(cold_opts);

    for (const FigureSpec &fig : figures) {
        FigureTimes t;
        t.name = fig.name;
        t.scenarios = fig.grid.size();
        t.cold_ns = elapsedNs([&] {
            for (const Scenario &s : fig.grid)
                cold.run(s);
        });
        for (const Scenario &s : fig.grid) {
            const FrameResult &r = cold.run(s);
            t.hash_mix ^= r.frame_hash;
            t.cycles += r.cycles;
            t.tris += cold.trace(s.bench).totalTriangles();
        }
        times.push_back(std::move(t));
    }
    SweepStats cold_stats = cold.stats();

    // --- Phase 2: warm parallel ------------------------------------------
    // Fresh runner (empty memo) on the same cache directory,
    // scenario-parallel. A frame is serial host code; --jobs sizes the
    // global pool that a stream scenario's frames fan out on, which only
    // happens at --sweep-jobs=1 (inside a parallel scenario they run
    // inline, ScenarioRegion).
    setGlobalJobs(inner_jobs);
    SweepOptions warm_opts;
    warm_opts.sweep_jobs = sweep_jobs;
    warm_opts.scale = h.scale();
    warm_opts.cache_dir = cache_dir;
    warm_opts.cache_read = true;
    SweepRunner warm(warm_opts);

    for (FigureTimes &t : times) {
        const FigureSpec &fig = figures[static_cast<std::size_t>(
            &t - times.data())];
        t.warm_ns = elapsedNs([&] { warm.prefetch(fig.grid); });
    }
    SweepStats warm_stats = warm.stats();

    // --- Verification: warm results bit-identical to the cold baseline ---
    std::size_t verified = 0;
    for (const FigureSpec &fig : figures)
        for (const Scenario &s : fig.grid) {
            checkIdentical(cold.run(s), warm.run(s),
                           fig.name + "/" + s.bench + "/" +
                               toString(s.scheme));
            verified += 1;
        }

    // --- Report -----------------------------------------------------------
    double cold_total = 0.0, warm_total = 0.0;
    TextTable table({"figure", "scenarios", "cold-serial ms",
                     "warm-parallel ms", "speedup"});
    for (const FigureTimes &t : times) {
        cold_total += t.cold_ns;
        warm_total += t.warm_ns;
        double speedup = t.warm_ns > 0.0 ? t.cold_ns / t.warm_ns : 1.0;
        table.addRow({t.name, std::to_string(t.scenarios),
                      formatDouble(t.cold_ns / 1e6, 1),
                      formatDouble(t.warm_ns / 1e6, 1),
                      formatDouble(speedup, 2) + "x"});
    }
    double total_speedup =
        warm_total > 0.0 ? cold_total / warm_total : 1.0;
    table.addRow({"total", std::to_string(total_scenarios),
                  formatDouble(cold_total / 1e6, 1),
                  formatDouble(warm_total / 1e6, 1),
                  formatDouble(total_speedup, 2) + "x"});
    h.emit(table);

    double warm_lookups =
        static_cast<double>(warm_stats.memo_hits + warm_stats.disk_hits +
                            warm_stats.computed);
    double hit_rate =
        warm_lookups > 0.0
            ? static_cast<double>(warm_stats.memo_hits +
                                  warm_stats.disk_hits) /
                  warm_lookups
            : 0.0;
    std::cout << "verified " << verified
              << " scenario results bit-identical (cold-serial vs "
                 "warm-parallel)\n"
              << "warm-phase cache hit rate: " << percent(hit_rate) << " ("
              << warm_stats.disk_hits << " disk, " << warm_stats.memo_hits
              << " memo, " << warm_stats.computed << " computed, "
              << warm_stats.disk_rejected << " rejected)\n";

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        chopin_assert(out.good(), "cannot write ", out_path);
        JsonWriter w(out);
        w.beginObject();
        w.field("scale", h.scale());
        w.field("gpus", h.gpus());
        w.field("jobs_parallel", warm.options().sweep_jobs);
        w.field("repeat", 1);
        w.field("total_scenarios", total_scenarios);
        w.field("verified", verified);
        w.field("cold_serial_ns", cold_total);
        w.field("warm_parallel_ns", warm_total);
        w.field("gmean_speedup", total_speedup);
        w.key("cache");
        w.beginObject();
        w.field("dir", cache_dir);
        w.field("warm_hit_rate", hit_rate);
        emitStats(w, "cold", cold_stats);
        emitStats(w, "warm", warm_stats);
        w.endObject();
        w.key("results");
        w.beginArray();
        for (const FigureTimes &t : times) {
            double speedup =
                t.warm_ns > 0.0 ? t.cold_ns / t.warm_ns : 1.0;
            double mtris = t.warm_ns > 0.0
                               ? static_cast<double>(t.tris) * 1000.0 /
                                     t.warm_ns
                               : 0.0;
            w.beginObject();
            w.field("bench", t.name);
            w.field("scheme", "suite");
            w.field("tris", t.tris);
            w.field("ns_frame_serial", t.cold_ns);
            w.field("ns_frame_parallel", t.warm_ns);
            w.field("mtris_per_s", mtris);
            w.field("speedup", speedup);
            w.field("frame_hash", t.hash_mix);
            w.field("cycles", t.cycles);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        w.finish();
        std::cout << "wrote " << out_path << "\n";
    }

    SystemConfig trace_cfg;
    trace_cfg.num_gpus = h.gpus();
    h.writeTraceSample(Scheme::ChopinCompSched, trace_cfg);
    return 0;
}
