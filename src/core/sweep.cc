#include "core/sweep.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include <unistd.h> // getpid(), for unique cache temp-file names

#include "gfx/surface.hh"
#include "stats/metrics.hh"
#include "util/check.hh"
#include "util/fingerprint.hh"

namespace chopin
{

std::uint32_t
resultCacheVersion()
{
    Fingerprinter fp;
    fp.str("ResultCache");
    fp.u64(resultSchemaVersion);
    fp.u64(metricSchemaFingerprint<FrameAccounting>());
    fp.u64(metricSchemaFingerprint<DrawTiming>());
    // Sequence results are memoized under keys derived from this version
    // too (sequenceScenarioFingerprint), so a stream-metric change evicts
    // them exactly like a frame-metric change evicts frame entries.
    fp.u64(metricSchemaFingerprint<SequenceAccounting>());
    return static_cast<std::uint32_t>(fp.value());
}

std::uint64_t
scenarioFingerprint(Scheme scheme, std::uint64_t trace_fp,
                    const SystemConfig &cfg, std::uint32_t cache_version)
{
    Fingerprinter fp;
    fp.str("Scenario/v1");
    fp.u64(cache_version);
    fp.u64(static_cast<std::uint64_t>(scheme));
    fp.u64(trace_fp);
    fp.u64(cfg.fingerprint());
    return fp.value();
}

std::uint64_t
sequenceScenarioFingerprint(const SequenceOptions &opt,
                            std::uint64_t sequence_fp,
                            const SystemConfig &cfg,
                            std::uint32_t cache_version)
{
    Fingerprinter fp;
    fp.str("SequenceScenario/v1");
    fp.u64(cache_version);
    fp.u64(opt.fingerprint());
    fp.u64(sequence_fp);
    fp.u64(cfg.fingerprint());
    return fp.value();
}

// --- FrameResult (de)serialization ----------------------------------------
//
// The accounting payload (FrameAccounting and each DrawTiming) is written
// through the metric registry (stats/metrics.hh): one 64-bit word per
// registered metric, in registration order, so the serializer can never
// drift from the structs — a new field either registers (and ships) or
// trips the metrics round-trip test. Framing (magic/version/key header,
// trailing sentinel) stays explicit. The image is run-length encoded over
// bit-identical pixels: rendered frames have large uniform regions (clear
// color, sky), and the encoding is lossless, so the cached FrameResult
// round-trips bit-exactly.

namespace
{

constexpr std::uint32_t resultMagic = 0x43485243;    // "CHRC"
constexpr std::uint32_t resultEndMagic = 0x444e4552; // "ENDR"

/** Reader that fails soft: every get() after a short read returns false
 *  and poisons the reader, so corrupt files surface as a rejected load
 *  rather than a crash or a fatal(). It tracks the bytes not yet consumed,
 *  so a declared element count can be checked against the rest of the
 *  file (fits()) before anything is allocated for it. */
class SoftReader
{
  public:
    explicit SoftReader(const std::string &path)
        : is(path, std::ios::binary)
    {
        is.seekg(0, std::ios::end);
        std::streamoff end = is.tellg();
        is.seekg(0, std::ios::beg);
        ok_flag = is.good() && end >= 0;
        if (ok_flag)
            left = static_cast<std::uint64_t>(end);
    }

    bool opened() const { return ok_flag; }

    template <typename T>
    bool
    get(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (!ok_flag || left < sizeof(T)) {
            ok_flag = false;
            return false;
        }
        is.read(reinterpret_cast<char *>(&v), sizeof(T));
        ok_flag = static_cast<bool>(is);
        left -= sizeof(T);
        return ok_flag;
    }

    /** True iff @p count elements of at least @p min_bytes encoded bytes
     *  each fit in the rest of the file; poisons the reader otherwise. */
    bool
    fits(std::uint64_t count, std::uint64_t min_bytes)
    {
        if (ok_flag && count > left / min_bytes)
            ok_flag = false;
        return ok_flag;
    }

    /** True iff every byte has been consumed (no trailing garbage). */
    bool atEof() const { return ok_flag && left == 0; }

  private:
    std::ifstream is;
    std::uint64_t left = 0; ///< bytes not yet consumed
    bool ok_flag = false;
};

template <typename T>
void
put(std::ostream &os, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

void
putImageRle(std::ostream &os, const Image &img)
{
    put(os, static_cast<std::int32_t>(img.width()));
    put(os, static_cast<std::int32_t>(img.height()));
    const std::vector<Color> &px = img.data();
    std::uint64_t runs = 0;
    for (std::size_t i = 0; i < px.size();) {
        std::size_t j = i + 1;
        while (j < px.size() &&
               std::memcmp(&px[j], &px[i], sizeof(Color)) == 0)
            ++j;
        ++runs;
        i = j;
    }
    put(os, runs);
    for (std::size_t i = 0; i < px.size();) {
        std::size_t j = i + 1;
        while (j < px.size() &&
               std::memcmp(&px[j], &px[i], sizeof(Color)) == 0)
            ++j;
        put(os, static_cast<std::uint32_t>(j - i));
        put(os, px[i].r);
        put(os, px[i].g);
        put(os, px[i].b);
        put(os, px[i].a);
        i = j;
    }
}

bool
getImageRle(SoftReader &r, Image &img)
{
    std::int32_t w = 0, h = 0;
    if (!r.get(w) || !r.get(h))
        return false;
    if (w < 0 || h < 0 || w > (1 << 16) || h > (1 << 16))
        return false;
    std::uint64_t pixels =
        static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h);
    std::uint64_t n_runs = 0;
    if (!r.get(n_runs) || n_runs > pixels)
        return false;

    // Read and validate every run before allocating the image: its size
    // is only trusted once the stored run counts cover it exactly.
    struct Run
    {
        std::uint32_t count;
        Color color;
    };
    if (!r.fits(n_runs, sizeof(std::uint32_t) + sizeof(Color)))
        return false;
    std::vector<Run> runs(n_runs);
    std::uint64_t filled = 0;
    for (Run &run : runs) {
        Color &c = run.color;
        if (!r.get(run.count) || !r.get(c.r) || !r.get(c.g) ||
            !r.get(c.b) || !r.get(c.a))
            return false;
        if (run.count == 0 || filled + run.count > pixels)
            return false;
        filled += run.count;
    }
    if (filled != pixels)
        return false;

    img = pixels > 0 ? Image(w, h) : Image();
    std::vector<Color> &px = img.data();
    filled = 0;
    for (const Run &run : runs) {
        std::fill_n(px.begin() + static_cast<std::ptrdiff_t>(filled),
                    run.count, run.color);
        filled += run.count;
    }
    return true;
}

} // namespace

ResultCache::ResultCache(std::string cache_dir, std::uint32_t schema_version)
    : dir(std::move(cache_dir)), version(schema_version)
{
    CHOPIN_CHECK(!dir.empty(), "result cache directory must not be empty");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    CHOPIN_CHECK(!ec, "cannot create result cache directory '", dir,
                 "': ", ec.message());
}

std::string
ResultCache::path(std::uint64_t key) const
{
    static const char digits[] = "0123456789abcdef";
    std::string name(16, '0');
    std::uint64_t v = key;
    for (int i = 15; i >= 0; --i, v >>= 4)
        name[static_cast<std::size_t>(i)] = digits[v & 0xf];
    return dir + "/" + name + ".chopinres";
}

CacheLoad
ResultCache::load(std::uint64_t key, FrameResult &out) const
{
    SoftReader r(path(key));
    if (!r.opened())
        return CacheLoad::Miss;

    std::uint32_t magic = 0, file_version = 0;
    std::uint64_t file_key = 0;
    if (!r.get(magic) || magic != resultMagic)
        return CacheLoad::Rejected;
    if (!r.get(file_version) || file_version != version)
        return CacheLoad::Rejected;
    if (!r.get(file_key) || file_key != key)
        return CacheLoad::Rejected;

    FrameResult res;
    std::uint32_t scheme_raw = 0;
    if (!r.get(scheme_raw) ||
        scheme_raw > static_cast<std::uint32_t>(Scheme::ChopinIdeal))
        return CacheLoad::Rejected;
    res.scheme = static_cast<Scheme>(scheme_raw);

    // The whole accounting block ships through the metric registry: every
    // registered metric, in registration order, one word each.
    if (!readMetrics(r, static_cast<FrameAccounting &>(res)))
        return CacheLoad::Rejected;

    // Each DrawTiming is one 64-bit word per registered metric.
    std::uint64_t n_timings = 0;
    if (!r.get(n_timings) ||
        !r.fits(n_timings, sizeof(std::uint64_t) *
                               collectMetrics(DrawTiming{}).size()))
        return CacheLoad::Rejected;
    res.draw_timings.resize(n_timings);
    for (DrawTiming &t : res.draw_timings)
        if (!readMetrics(r, t))
            return CacheLoad::Rejected;

    if (!getImageRle(r, res.image))
        return CacheLoad::Rejected;

    std::uint32_t end_magic = 0;
    if (!r.get(end_magic) || end_magic != resultEndMagic || !r.atEof())
        return CacheLoad::Rejected;

    // Content validation: the stored image must reproduce the stored
    // frame hash. This catches bit rot in the bulk payload that the
    // framing checks above cannot see.
    if (frameHash(res.image) != res.frame_hash)
        return CacheLoad::Rejected;

    out = std::move(res);
    return CacheLoad::Hit;
}

bool
ResultCache::store(std::uint64_t key, const FrameResult &r) const
{
    std::string final_path = path(key);
    std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        put(os, resultMagic);
        put(os, version);
        put(os, key);
        put(os, static_cast<std::uint32_t>(r.scheme));
        writeMetrics(os, static_cast<const FrameAccounting &>(r));
        put(os, static_cast<std::uint64_t>(r.draw_timings.size()));
        for (const DrawTiming &t : r.draw_timings)
            writeMetrics(os, t);
        putImageRle(os, r.image);
        put(os, resultEndMagic);
        if (!os)
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
        std::filesystem::remove(tmp_path, ec);
        return false;
    }
    return true;
}

// --- SweepRunner ----------------------------------------------------------

/** Validate and resolve defaults before the const members freeze. */
static SweepOptions
normalizeOptions(SweepOptions o)
{
    CHOPIN_CHECK(o.scale >= 1, "sweep scale divisor must be >= 1, got ",
                 o.scale);
    if (o.sweep_jobs == 0)
        o.sweep_jobs = defaultJobs();
    return o;
}

SweepRunner::SweepRunner(SweepOptions options)
    : opts(normalizeOptions(std::move(options))),
      pool(std::make_unique<ThreadPool>(opts.sweep_jobs)),
      disk(opts.cache_dir.empty()
               ? nullptr
               : std::make_unique<ResultCache>(opts.cache_dir,
                                               opts.cache_version))
{
}

SweepRunner::~SweepRunner() = default;

const SweepRunner::TraceEntry &
SweepRunner::traceEntry(const std::string &bench)
{
    {
        LockGuard lk(m);
        auto it = traces.find(bench);
        if (it != traces.end())
            return it->second;
    }
    // Generate outside the lock: traces are deterministic in (bench,
    // scale), so a concurrent duplicate generation produces an identical
    // entry and emplace keeps whichever landed first.
    TraceEntry entry;
    entry.trace = generateBenchmark(bench, opts.scale);
    entry.fp = traceFingerprint(entry.trace);
    LockGuard lk(m);
    return traces.emplace(bench, std::move(entry)).first->second;
}

const FrameTrace &
SweepRunner::trace(const std::string &bench)
{
    return traceEntry(bench).trace;
}

std::uint64_t
SweepRunner::traceFp(const std::string &bench)
{
    return traceEntry(bench).fp;
}

const FrameResult &
SweepRunner::run(const Scenario &s)
{
    std::uint64_t key = scenarioFingerprint(s.scheme, traceFp(s.bench),
                                            s.cfg, opts.cache_version);
    return runKeyed(s, key);
}

const FrameResult &
SweepRunner::runKeyed(const Scenario &s, std::uint64_t key)
{
    {
        LockGuard lk(m);
        auto it = results.find(key);
        if (it != results.end()) {
            counters.memo_hits += 1;
            return it->second;
        }
    }

    if (disk && opts.cache_read) {
        FrameResult loaded;
        CacheLoad outcome = disk->load(key, loaded);
        if (outcome == CacheLoad::Hit) {
            LockGuard lk(m);
            auto [it, inserted] = results.emplace(key, std::move(loaded));
            if (inserted)
                counters.disk_hits += 1;
            else
                counters.memo_hits += 1;
            return it->second;
        }
        if (outcome == CacheLoad::Rejected) {
            LockGuard lk(m);
            counters.disk_rejected += 1;
        }
    }

    FrameResult computed;
    {
        // The scenario owns a complete private simulation; inside a
        // parallel sweep this clears the in-parallel flag, making this
        // task the simulation's coordinator (see thread_pool.hh).
        ScenarioRegion region;
        computed = runScheme(s.scheme, s.cfg, trace(s.bench));
    }

    bool inserted;
    const FrameResult *res;
    {
        LockGuard lk(m);
        auto [it, ins] = results.emplace(key, std::move(computed));
        inserted = ins;
        res = &it->second;
        counters.computed += 1;
    }
    // Only the inserting thread persists, so no two in-process writers
    // ever race on one entry; cross-process writers are isolated by the
    // per-pid temp file + atomic rename in ResultCache::store().
    if (inserted && disk && disk->store(key, *res)) {
        LockGuard lk(m);
        counters.stored += 1;
    }
    return *res;
}

const SequenceResult &
SweepRunner::runStream(const SequenceOptions &opt, const SequenceTrace &seq,
                       const SystemConfig &cfg)
{
    std::uint64_t key = sequenceScenarioFingerprint(
        opt, sequenceFingerprint(seq), cfg, opts.cache_version);
    {
        LockGuard lk(m);
        auto it = seq_results.find(key);
        if (it != seq_results.end()) {
            counters.memo_hits += 1;
            return it->second;
        }
    }
    // runSequence() manages its own frame-level parallelism on the global
    // pool and is bit-deterministic at any job count, so a concurrent
    // duplicate computation yields an identical value and emplace keeps
    // whichever landed first.
    SequenceResult computed = runSequence(opt, cfg, seq);
    LockGuard lk(m);
    auto [it, inserted] = seq_results.emplace(key, std::move(computed));
    if (inserted)
        counters.computed += 1;
    else
        counters.memo_hits += 1;
    return it->second;
}

void
SweepRunner::prefetch(const std::vector<Scenario> &grid)
{
    // Stage 1: generate each distinct trace exactly once, in parallel.
    std::vector<std::string> benches;
    {
        std::set<std::string> seen;
        LockGuard lk(m);
        for (const Scenario &s : grid)
            if (traces.find(s.bench) == traces.end() &&
                seen.insert(s.bench).second)
                benches.push_back(s.bench);
    }
    pool->parallelFor(benches.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                              ScenarioRegion region;
                              traceEntry(benches[i]);
                          }
                      });

    // Stage 2: resolve keys and deduplicate (identical cells appear in
    // several figures' grids); first occurrence wins, so exactly one task
    // per distinct scenario reaches the pool.
    std::vector<const Scenario *> todo;
    std::vector<std::uint64_t> keys;
    std::set<std::uint64_t> seen_keys;
    for (const Scenario &s : grid) {
        std::uint64_t key = scenarioFingerprint(
            s.scheme, traceFp(s.bench), s.cfg, opts.cache_version);
        if (seen_keys.insert(key).second) {
            todo.push_back(&s);
            keys.push_back(key);
        }
    }

    // Stage 3: execute scenario-granular tasks concurrently.
    pool->parallelFor(todo.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                              runKeyed(*todo[i], keys[i]);
                      });
}

SweepStats
SweepRunner::stats() const
{
    LockGuard lk(m);
    return counters;
}

} // namespace chopin
