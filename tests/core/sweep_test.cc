/**
 * @file
 * Sweep engine + content-addressed result cache (core/sweep.hh): the
 * contracts the figure suite rides on. Memoization and disk reuse must be
 * invisible — results bit-identical to a fresh computation at any
 * sweep_jobs value, cold or warm — and the disk cache must reject (never
 * trust, never crash on) corrupt, truncated or version-mismatched entries.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "stats/metrics.hh"

namespace chopin
{
namespace
{

/** Small, fast scenario set: tiny traces, 2 GPUs. */
constexpr int kScale = 256;

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.num_gpus = 2;
    return cfg;
}

Scenario
smallScenario(Scheme scheme = Scheme::Duplication)
{
    return Scenario{scheme, "ut3", smallConfig()};
}

SweepOptions
optionsWith(std::string cache_dir, unsigned sweep_jobs = 1)
{
    SweepOptions opts;
    opts.sweep_jobs = sweep_jobs;
    opts.scale = kScale;
    opts.cache_dir = std::move(cache_dir);
    return opts;
}

/** Fresh directory under the test temp dir, unique per test. */
std::string
freshCacheDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "chopin_sweep_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

void
expectIdentical(const FrameResult &a, const FrameResult &b)
{
    EXPECT_EQ(a.frame_hash, b.frame_hash);
    EXPECT_EQ(a.content_hash, b.content_hash);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.traffic.total, b.traffic.total);
    EXPECT_EQ(a.breakdown.total(), b.breakdown.total());
    ASSERT_EQ(a.image.data().size(), b.image.data().size());
    EXPECT_EQ(0, std::memcmp(a.image.data().data(), b.image.data().data(),
                             a.image.data().size() * sizeof(Color)));
}

TEST(Sweep, RepeatedRunIsAMemoHit)
{
    SweepRunner runner(optionsWith(""));
    const FrameResult &first = runner.run(smallScenario());
    const FrameResult &second = runner.run(smallScenario());
    EXPECT_EQ(&first, &second); // same node-stable entry, not a copy

    SweepStats s = runner.stats();
    EXPECT_EQ(s.computed, 1u);
    EXPECT_EQ(s.memo_hits, 1u);
    EXPECT_EQ(s.disk_hits, 0u);
    EXPECT_EQ(s.stored, 0u); // no cache dir configured
}

TEST(Sweep, DiskHitAcrossRunnersIsBitIdentical)
{
    std::string dir = freshCacheDir("disk_hit");

    SweepRunner writer(optionsWith(dir));
    const FrameResult &computed = writer.run(smallScenario());
    EXPECT_EQ(writer.stats().stored, 1u);

    SweepRunner reader(optionsWith(dir));
    const FrameResult &loaded = reader.run(smallScenario());
    SweepStats s = reader.stats();
    EXPECT_EQ(s.disk_hits, 1u);
    EXPECT_EQ(s.computed, 0u);
    expectIdentical(computed, loaded);
}

TEST(Sweep, ColdRunIgnoresDiskButStillStores)
{
    std::string dir = freshCacheDir("cold");

    SweepRunner writer(optionsWith(dir));
    writer.run(smallScenario());

    SweepOptions cold = optionsWith(dir);
    cold.cache_read = false;
    SweepRunner cold_runner(cold);
    cold_runner.run(smallScenario());
    SweepStats s = cold_runner.stats();
    EXPECT_EQ(s.computed, 1u);
    EXPECT_EQ(s.disk_hits, 0u); // entry existed but reads are disabled
    EXPECT_EQ(s.stored, 1u);    // refreshed (evicts any stale entry)
}

TEST(Sweep, VersionBumpChangesEveryScenarioKey)
{
    SweepRunner runner(optionsWith(""));
    std::uint64_t trace_fp = runner.traceFp("ut3");
    SystemConfig cfg = smallConfig();
    std::uint64_t v1 =
        scenarioFingerprint(Scheme::Duplication, trace_fp, cfg, 1);
    std::uint64_t v2 =
        scenarioFingerprint(Scheme::Duplication, trace_fp, cfg, 2);
    EXPECT_NE(v1, v2); // a bumped schema version misses, never aliases
}

TEST(Sweep, ScenarioFingerprintSeparatesSchemeTraceAndConfig)
{
    SweepRunner runner(optionsWith(""));
    std::uint64_t ut3 = runner.traceFp("ut3");
    std::uint64_t wolf = runner.traceFp("wolf");
    SystemConfig cfg = smallConfig();
    SystemConfig cfg4 = cfg;
    cfg4.num_gpus = 4;

    std::uint64_t base =
        scenarioFingerprint(Scheme::Duplication, ut3, cfg, 1);
    EXPECT_NE(base, scenarioFingerprint(Scheme::Chopin, ut3, cfg, 1));
    EXPECT_NE(base, scenarioFingerprint(Scheme::Duplication, wolf, cfg, 1));
    EXPECT_NE(base, scenarioFingerprint(Scheme::Duplication, ut3, cfg4, 1));
}

TEST(Sweep, VersionMismatchedEntryRejectedThenEvictedByStore)
{
    std::string dir = freshCacheDir("version");

    SweepRunner runner(optionsWith(dir));
    const FrameResult &r = runner.run(smallScenario());
    std::uint64_t key = scenarioFingerprint(
        smallScenario().scheme, runner.traceFp("ut3"),
        smallScenario().cfg, resultCacheVersion());

    // A cache constructed with a different schema version sees the same
    // file (path is keyed by the fingerprint alone) but must reject its
    // header.
    ResultCache v1(dir, resultCacheVersion());
    ResultCache v2(dir, resultCacheVersion() + 1);
    FrameResult out;
    EXPECT_EQ(v1.load(key, out), CacheLoad::Hit);
    EXPECT_EQ(v2.load(key, out), CacheLoad::Rejected);

    // Storing through the new version evicts the old entry in place.
    EXPECT_TRUE(v2.store(key, r));
    EXPECT_EQ(v2.load(key, out), CacheLoad::Hit);
    EXPECT_EQ(v1.load(key, out), CacheLoad::Rejected);
}

TEST(Sweep, CorruptEntryIsRejectedAndRecomputed)
{
    std::string dir = freshCacheDir("corrupt");

    SweepRunner writer(optionsWith(dir));
    const FrameResult &good = writer.run(smallScenario());
    std::uint64_t key = scenarioFingerprint(
        smallScenario().scheme, writer.traceFp("ut3"),
        smallScenario().cfg, resultCacheVersion());

    ResultCache cache(dir, resultCacheVersion());
    std::string path = cache.path(key);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Flip bytes in the middle of the payload: header still parses, the
    // image hash validation must catch it.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(path) / 2));
        const char junk[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
        f.write(junk, sizeof(junk));
    }
    FrameResult out;
    EXPECT_EQ(cache.load(key, out), CacheLoad::Rejected);

    // A runner over the poisoned cache recomputes without crashing and
    // re-stores a clean entry.
    SweepRunner reader(optionsWith(dir));
    const FrameResult &recomputed = reader.run(smallScenario());
    SweepStats s = reader.stats();
    EXPECT_EQ(s.disk_rejected, 1u);
    EXPECT_EQ(s.computed, 1u);
    EXPECT_EQ(s.stored, 1u);
    expectIdentical(good, recomputed);
    EXPECT_EQ(cache.load(key, out), CacheLoad::Hit); // healed
}

TEST(Sweep, TruncatedEntryIsRejectedAndRecomputed)
{
    std::string dir = freshCacheDir("truncated");

    SweepRunner writer(optionsWith(dir));
    writer.run(smallScenario());
    std::uint64_t key = scenarioFingerprint(
        smallScenario().scheme, writer.traceFp("ut3"),
        smallScenario().cfg, resultCacheVersion());

    ResultCache cache(dir, resultCacheVersion());
    std::string path = cache.path(key);
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) / 2);
    FrameResult out;
    EXPECT_EQ(cache.load(key, out), CacheLoad::Rejected);

    SweepRunner reader(optionsWith(dir));
    reader.run(smallScenario());
    SweepStats s = reader.stats();
    EXPECT_EQ(s.disk_rejected, 1u);
    EXPECT_EQ(s.computed, 1u);
}

TEST(Sweep, GarbageFileIsRejectedNotFatal)
{
    std::string dir = freshCacheDir("garbage");
    ResultCache cache(dir, resultCacheVersion());
    std::uint64_t key = 0x1234abcd5678ef90ull;
    {
        std::ofstream f(cache.path(key), std::ios::binary);
        f << "this is not a chopin result file";
    }
    FrameResult out;
    EXPECT_EQ(cache.load(key, out), CacheLoad::Rejected);
    EXPECT_EQ(cache.load(0xfeedface0ull, out), CacheLoad::Miss); // absent
}

TEST(Sweep, CacheLoaderAllocatesOnlyWhatTheFileHolds)
{
    // A hand-written entry with a valid header that declares a
    // 65536x65536 image (68 GB of pixels), one run, and then ends. The
    // loader must reject it from the bytes it has: a loader that sizes the
    // image from the declared dimensions before reading the runs throws
    // std::bad_alloc here (or exhausts memory) instead.
    std::string dir = freshCacheDir("oversized");
    ResultCache cache(dir, resultCacheVersion());
    std::uint64_t key = 0x0123456789abcdefull;
    {
        std::ofstream f(cache.path(key), std::ios::binary);
        auto put = [&f](const auto &v) {
            f.write(reinterpret_cast<const char *>(&v), sizeof v);
        };
        put(std::uint32_t{0x43485243}); // result-file magic "CHRC"
        put(resultCacheVersion());
        put(key);
        put(static_cast<std::uint32_t>(Scheme::Chopin));
        writeMetrics(f, FrameAccounting{});
        put(std::uint64_t{0});      // draw timings
        put(std::int32_t{1 << 16}); // width
        put(std::int32_t{1 << 16}); // height
        put(std::uint64_t{1});      // runs, none of which follow
    }
    ASSERT_LT(std::filesystem::file_size(cache.path(key)), 4096u);

    FrameResult out;
    CacheLoad load = CacheLoad::Hit;
    EXPECT_NO_THROW(load = cache.load(key, out));
    EXPECT_EQ(load, CacheLoad::Rejected);
}

TEST(Sweep, PrefetchComputesOnceThenServesMemoHits)
{
    SweepRunner runner(optionsWith("", /*sweep_jobs=*/2));
    std::vector<Scenario> grid;
    for (Scheme s : {Scheme::Duplication, Scheme::Chopin})
        grid.push_back(smallScenario(s));
    grid.push_back(smallScenario(Scheme::Duplication)); // duplicate cell

    runner.prefetch(grid);
    SweepStats after_prefetch = runner.stats();
    EXPECT_EQ(after_prefetch.computed, 2u); // deduplicated before running

    for (const Scenario &s : grid)
        runner.run(s);
    SweepStats after_reads = runner.stats();
    EXPECT_EQ(after_reads.computed, 2u);
    EXPECT_EQ(after_reads.memo_hits, 3u);
}

TEST(Sweep, DeterministicAcrossSweepJobsAndColdWarm)
{
    // The acceptance contract: identical results at --sweep-jobs 1/2/8,
    // cold or warm. Serial-cold is the reference.
    std::vector<Scenario> grid;
    for (Scheme scheme :
         {Scheme::Duplication, Scheme::Gpupd, Scheme::ChopinCompSched})
        for (unsigned gpus : {2u, 4u}) {
            SystemConfig cfg;
            cfg.num_gpus = gpus;
            grid.push_back(Scenario{scheme, "ut3", cfg});
        }

    SweepRunner reference(optionsWith("", 1));
    reference.prefetch(grid);

    std::string dir = freshCacheDir("determinism");
    for (unsigned jobs : {1u, 2u, 8u}) {
        // Cold: computes everything (stores into the shared dir).
        SweepOptions cold = optionsWith(dir, jobs);
        cold.cache_read = false;
        SweepRunner cold_runner(cold);
        cold_runner.prefetch(grid);
        // Warm: serves everything from the disk entries the cold runner
        // just wrote.
        SweepRunner warm_runner(optionsWith(dir, jobs));
        warm_runner.prefetch(grid);
        EXPECT_EQ(warm_runner.stats().computed, 0u) << "jobs=" << jobs;

        for (const Scenario &s : grid) {
            expectIdentical(reference.run(s), cold_runner.run(s));
            expectIdentical(reference.run(s), warm_runner.run(s));
        }
    }
}

TEST(Sweep, StreamRunIsMemoizedBySequenceKey)
{
    SweepRunner runner(optionsWith(""));
    SequenceParams params;
    params.num_frames = 3;
    SequenceTrace seq = generateBenchmarkSequence("ut3", kScale, params);
    SequenceOptions opt;
    opt.scheme = SequenceScheme::HybridAfrSfr;
    opt.afr_groups = 2;

    const SequenceResult &first = runner.runStream(opt, seq, smallConfig());
    const SequenceResult &second =
        runner.runStream(opt, seq, smallConfig());
    EXPECT_EQ(&first, &second); // same node-stable entry, not a copy
    EXPECT_EQ(first.num_frames, 3u);

    SweepStats s = runner.stats();
    EXPECT_EQ(s.computed, 1u);
    EXPECT_EQ(s.memo_hits, 1u);

    // A different stream schedule is a different scenario.
    SequenceOptions other = opt;
    other.scheme = SequenceScheme::PureAfr;
    runner.runStream(other, seq, smallConfig());
    EXPECT_EQ(runner.stats().computed, 2u);
}

TEST(Sweep, SequenceKeySeparatesEveryInput)
{
    SequenceParams params;
    params.num_frames = 3;
    SequenceTrace seq = generateBenchmarkSequence("ut3", kScale, params);
    std::uint64_t seq_fp = sequenceFingerprint(seq);
    SystemConfig cfg = smallConfig();
    SequenceOptions opt;
    const std::uint64_t key =
        sequenceScenarioFingerprint(opt, seq_fp, cfg, 1);

    { // options (scheme / groups / intra / carry-over all feed in)
        SequenceOptions o = opt;
        o.afr_groups += 2;
        EXPECT_NE(sequenceScenarioFingerprint(o, seq_fp, cfg, 1), key);
    }
    { // sequence content: any perturbed v2 field moves the key, because
      // sequenceFingerprint() covers it (tests/trace/sequence_io_test.cc
      // walks each field) and the key folds the fingerprint verbatim.
        SequenceTrace s = seq;
        s.knobs.camera_step *= 2.0f;
        EXPECT_NE(sequenceScenarioFingerprint(opt, sequenceFingerprint(s),
                                              cfg, 1),
                  key);
    }
    { // config
        SystemConfig c = cfg;
        c.group_threshold += 1;
        EXPECT_NE(sequenceScenarioFingerprint(opt, seq_fp, c, 1), key);
    }
    { // cache version (resultCacheVersion() folds the stream metric
      // schema, so a SequenceAccounting change flows through here)
        EXPECT_NE(sequenceScenarioFingerprint(opt, seq_fp, cfg, 2), key);
    }
}

} // namespace
} // namespace chopin
