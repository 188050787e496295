/**
 * @file
 * CHOPIN edge cases that collapse whole phases of the algorithm: a frame
 * with zero transparent groups (the transparent split and tree merge never
 * run) and a single-GPU system (every composition degenerates to a local
 * no-op). The degenerate paths share the image oracle of the full ones.
 * A hand-made trace also checks that sub-image state a group does not
 * reset never leaks into a later group.
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

/** Two triangles covering [x0,x1]x[y0,y1] in NDC at depth @p z. */
void
addQuad(DrawCommand &cmd, float x0, float x1, float y0, float y1, float z,
        const Color &c)
{
    Triangle a, b;
    a.v[0] = {{x0, y0, z}, c};
    a.v[1] = {{x1, y0, z}, c};
    a.v[2] = {{x1, y1, z}, c};
    b.v[0] = {{x0, y0, z}, c};
    b.v[1] = {{x1, y1, z}, c};
    b.v[2] = {{x0, y1, z}, c};
    cmd.triangles.push_back(a);
    cmd.triangles.push_back(b);
}

/**
 * Three distributed groups on one 64x64 tile of render target 0, built so
 * that sub-image state left over from one group would show in the next:
 *  - A (opaque, LessEqual): a near red and a far blue quad over region R,
 *    on different GPUs, so one sub-image keeps a losing blue R;
 *  - B (opaque, Always): two quads over the disjoint region S only. A
 *    stale written mask would re-merge A's blue (a later writer id than
 *    the red on screen) into R;
 *  - C (transparent Over, depth test off): a half-transparent quad over S
 *    on the first GPU, then one over R on the second. Each GPU's stale
 *    color there (B's losing green, A's losing blue) differs from the
 *    frame's, so a stale color under the blend would show.
 * Every pixel of C is written by exactly one draw, so the blend sums are
 * the same expressions in every scheme and the content hash is exact.
 */
FrameTrace
staleStateTrace()
{
    FrameTrace t;
    t.name = "stale-state";
    t.viewport = {64, 64};
    auto draw = [&](DepthFunc func, BlendOp op) -> DrawCommand & {
        DrawCommand cmd;
        cmd.id = static_cast<DrawId>(t.draws.size());
        cmd.backface_cull = false;
        cmd.state.depth_func = func;
        cmd.state.blend_op = op;
        if (isTransparent(op)) {
            cmd.state.depth_test = false;
            cmd.state.depth_write = false;
        }
        t.draws.push_back(std::move(cmd));
        return t.draws.back();
    };
    const float r0 = -0.9f, r1 = -0.1f; // region R (x range)
    const float s0 = 0.1f, s1 = 0.9f;   // region S (x range)
    addQuad(draw(DepthFunc::LessEqual, BlendOp::Opaque), r0, r1, -0.9f,
            0.9f, -0.5f, {1, 0, 0, 1});
    addQuad(draw(DepthFunc::LessEqual, BlendOp::Opaque), r0, r1, -0.9f,
            0.9f, 0.5f, {0, 0, 1, 1});
    addQuad(draw(DepthFunc::Always, BlendOp::Opaque), s0, s1, -0.9f, 0.9f,
            0.25f, {0, 1, 0, 1});
    addQuad(draw(DepthFunc::Always, BlendOp::Opaque), s0, s1, -0.9f, 0.9f,
            0.75f, {1, 1, 0, 1});
    addQuad(draw(DepthFunc::LessEqual, BlendOp::Over), s0, s1, -0.9f, 0.9f,
            0.0f, {0.75f, 0.5f, 0.25f, 0.5f});
    addQuad(draw(DepthFunc::LessEqual, BlendOp::Over), r0, r1, -0.9f, 0.9f,
            0.0f, {0.25f, 0.5f, 0.75f, 0.5f});
    return t;
}

class ChopinEdgeTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(ChopinEdgeTest, StaleSubImageStateStaysHidden)
{
    // A group resets only the sub-image state its draws read (depth,
    // stencil, written mask; color too under blending). Color and writer
    // ids left by earlier groups must never reach the frame.
    Scheme scheme = GetParam();
    FrameTrace trace = staleStateTrace();
    SystemConfig cfg;
    cfg.num_gpus = 2;
    cfg.group_threshold = 1;
    std::vector<CompositionGroup> groups = formGroups(trace);
    ASSERT_EQ(groups.size(), 3u);
    for (const CompositionGroup &g : groups) {
        EXPECT_TRUE(groupDistributable(g, cfg.group_threshold));
        EXPECT_EQ(g.render_target, 0u);
    }
    EXPECT_TRUE(groups[2].transparent());

    FrameResult ref = runScheme(Scheme::SingleGpu, cfg, trace);
    FrameResult r = runScheme(scheme, cfg, trace);
    EXPECT_EQ(r.groups_distributed, 3u) << toString(scheme);
    EXPECT_EQ(r.content_hash, ref.content_hash) << toString(scheme);
    ImageDiff diff = compareImages(ref.image, r.image);
    EXPECT_EQ(diff.differing_pixels, 0)
        << toString(scheme) << ": first at (" << diff.first_x << ","
        << diff.first_y << ")";
}

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
