/**
 * @file
 * The image-equality oracle: every multi-GPU SFR scheme must produce the
 * same frame as in-order single-GPU rendering, for every benchmark trace.
 * Opaque content must match bit-exactly (the composition operators are
 * exact selections); transparent chains may differ by float-rounding of the
 * associativity rewrite, bounded by a small tolerance.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "sfr/schemes.hh"
#include "trace/generator.hh"

namespace chopin
{
namespace
{

/** Shared trace/reference cache so each benchmark renders its oracle once. */
struct OracleCache
{
    static OracleCache &
    instance()
    {
        static OracleCache cache;
        return cache;
    }

    const FrameTrace &
    trace(const std::string &bench)
    {
        auto it = traces.find(bench);
        if (it == traces.end())
            it = traces.emplace(bench, generateBenchmark(bench, 16)).first;
        return it->second;
    }

    const Image &
    reference(const std::string &bench)
    {
        auto it = refs.find(bench);
        if (it == refs.end()) {
            SystemConfig cfg;
            it = refs.emplace(bench,
                              runSingleGpu(cfg, trace(bench)).image)
                     .first;
        }
        return it->second;
    }

    std::map<std::string, FrameTrace> traces;
    std::map<std::string, Image> refs;
};

struct OracleCase
{
    const char *bench;
    Scheme scheme;
    unsigned gpus;
};

/** gtest value printer: without it the parameter prints as raw bytes,
 *  the bench pointer's address included, so ctest names vary per build. */
void
PrintTo(const OracleCase &c, std::ostream *os)
{
    *os << c.bench << "/" << toString(c.scheme) << "/" << c.gpus;
}

std::string
caseName(const ::testing::TestParamInfo<OracleCase> &info)
{
    std::string name = std::string(info.param.bench) + "_" +
                       toString(info.param.scheme) + "_" +
                       std::to_string(info.param.gpus) + "gpu";
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

class SchemeOracle : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(SchemeOracle, ImageMatchesSingleGpuReference)
{
    const OracleCase &c = GetParam();
    OracleCache &cache = OracleCache::instance();
    SystemConfig cfg;
    cfg.num_gpus = c.gpus;
    FrameResult r = runScheme(c.scheme, cfg, cache.trace(c.bench));
    // Transparent chains are re-associated across GPUs; allow float noise.
    ImageDiff diff = compareImages(cache.reference(c.bench), r.image, 2e-4f);
    EXPECT_EQ(diff.differing_pixels, 0)
        << diff.differing_pixels << " pixels differ (max "
        << diff.max_abs_diff << ", first at " << diff.first_x << ","
        << diff.first_y << ")";
}

std::vector<OracleCase>
allCases()
{
    std::vector<OracleCase> cases;
    const char *benches[] = {"cod2", "cry", "grid", "mirror",
                             "nfs",  "stal", "ut3",  "wolf"};
    // Every benchmark under the paper's 8-GPU setup for the two most
    // complex schemes; ut3/wolf additionally sweep GPU counts (including an
    // odd count) and the remaining schemes.
    for (const char *b : benches) {
        cases.push_back({b, Scheme::Duplication, 8});
        cases.push_back({b, Scheme::Gpupd, 8});
        cases.push_back({b, Scheme::ChopinCompSched, 8});
    }
    for (const char *b : {"ut3", "wolf"}) {
        for (unsigned gpus : {2u, 3u, 8u}) {
            cases.push_back({b, Scheme::Chopin, gpus});
            cases.push_back({b, Scheme::ChopinRoundRobin, gpus});
            cases.push_back({b, Scheme::GpupdIdeal, gpus});
            cases.push_back({b, Scheme::ChopinIdeal, gpus});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeOracle,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(OracleKnobs, CullRetentionIsTimingOnly)
{
    // Fig. 16's knob must never change the image.
    OracleCache &cache = OracleCache::instance();
    SystemConfig cfg;
    cfg.num_gpus = 8;
    cfg.cull_retention = 0.4;
    FrameResult r =
        runScheme(Scheme::ChopinCompSched, cfg, cache.trace("ut3"));
    EXPECT_GT(r.retained_culled, 0u);
    ImageDiff diff = compareImages(cache.reference("ut3"), r.image, 2e-4f);
    EXPECT_EQ(diff.differing_pixels, 0);
}

TEST(OracleKnobs, GroupThresholdDoesNotChangeTheImage)
{
    OracleCache &cache = OracleCache::instance();
    for (std::uint64_t threshold : {256ull, 16384ull, ~0ull}) {
        SystemConfig cfg;
        cfg.num_gpus = 8;
        cfg.group_threshold = threshold;
        FrameResult r =
            runScheme(Scheme::ChopinCompSched, cfg, cache.trace("wolf"));
        ImageDiff diff =
            compareImages(cache.reference("wolf"), r.image, 2e-4f);
        EXPECT_EQ(diff.differing_pixels, 0) << "threshold " << threshold;
    }
}

TEST(OracleKnobs, SchedulerUpdateIntervalDoesNotChangeTheImage)
{
    OracleCache &cache = OracleCache::instance();
    for (std::uint64_t interval : {1ull, 512ull, 1024ull}) {
        SystemConfig cfg;
        cfg.num_gpus = 8;
        cfg.sched_update_tris = interval;
        FrameResult r =
            runScheme(Scheme::Chopin, cfg, cache.trace("wolf"));
        ImageDiff diff =
            compareImages(cache.reference("wolf"), r.image, 2e-4f);
        EXPECT_EQ(diff.differing_pixels, 0) << "interval " << interval;
    }
}

} // namespace
} // namespace chopin
