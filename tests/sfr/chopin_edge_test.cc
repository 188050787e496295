/**
 * @file
 * CHOPIN edge cases that collapse whole phases of the algorithm: a frame
 * with zero transparent groups (the transparent split and tree merge never
 * run) and a single-GPU system (every composition degenerates to a local
 * no-op). The degenerate paths share the image oracle of the full ones.
 */

#include <gtest/gtest.h>

#include "net/interconnect.hh"
#include "sfr/grouping.hh"
#include "sfr/schemes.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"
#include "util/image.hh"

namespace chopin
{
namespace
{

/** ut3 scaled for test speed, with every transparent draw removed. */
FrameTrace
opaqueOnlyTrace()
{
    BenchmarkProfile p = scaleProfile(benchmarkProfile("ut3"), 32);
    p.transparent_draw_frac = 0.0;
    p.additive_frac = 0.0;
    FrameTrace trace = generateTrace(p);
    // The generator keeps a minimum transparent tail and the additive
    // render-target composites; drop those too and renumber the rest.
    std::erase_if(trace.draws, [](const DrawCommand &d) {
        return isTransparent(d.state.blend_op);
    });
    for (std::size_t i = 0; i < trace.draws.size(); ++i)
        trace.draws[i].id = static_cast<DrawId>(i);
    return trace;
}

class ChopinEdgeTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(ChopinEdgeTest, ZeroTransparentGroupsMatchesSingleGpu)
{
    Scheme scheme = GetParam();
    FrameTrace trace = opaqueOnlyTrace();
    for (const CompositionGroup &g : formGroups(trace))
        ASSERT_FALSE(g.transparent());

    SystemConfig one;
    one.num_gpus = 1;
    SystemConfig eight;
    eight.num_gpus = 8;
    FrameResult ref = runScheme(Scheme::SingleGpu, one, trace);
    FrameResult r = runScheme(scheme, eight, trace);
    EXPECT_GT(r.groups_distributed, 0u) << toString(scheme);
    // The same tolerance as the cross-scheme oracle (oracle_test.cc).
    ImageDiff diff = compareImages(ref.image, r.image, 2e-4f);
    EXPECT_EQ(diff.differing_pixels, 0)
        << toString(scheme) << ": " << diff.differing_pixels
        << " pixels differ (max " << diff.max_abs_diff << ")";
}

TEST_P(ChopinEdgeTest, SingleGpuMovesNoCompositionBytes)
{
    // With one GPU there is nobody to exchange sub-images with: the
    // composition phase, and the frame as a whole, must move zero bytes.
    Scheme scheme = GetParam();
    SystemConfig cfg;
    cfg.num_gpus = 1;
    FrameResult r = runScheme(scheme, cfg, generateBenchmark("ut3", 32));
    EXPECT_EQ(r.traffic.ofClass(TrafficClass::Composition), 0u)
        << toString(scheme);
    EXPECT_EQ(r.traffic.total, 0u) << toString(scheme);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ChopinEdgeTest,
    ::testing::Values(Scheme::Chopin, Scheme::ChopinCompSched),
    [](const auto &info) {
        std::string name = toString(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(ChopinEdge, OpaqueOnlyMatchesSingleGpuImage)
{
    // The cross-scheme oracle restricted to the degenerate trace: CHOPIN
    // over 8 GPUs must composite the opaque-only frame to exactly the
    // single-GPU reference image.
    FrameTrace trace = opaqueOnlyTrace();
    SystemConfig one;
    one.num_gpus = 1;
    SystemConfig eight;
    eight.num_gpus = 8;
    FrameResult ref = runScheme(Scheme::SingleGpu, one, trace);
    FrameResult chopin = runScheme(Scheme::Chopin, eight, trace);
    EXPECT_EQ(ref.content_hash, chopin.content_hash);
}

} // namespace
} // namespace chopin
