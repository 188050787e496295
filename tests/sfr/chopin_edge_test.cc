/**
 * @file
 * CHOPIN edge cases that collapse whole phases of the algorithm: a frame
 * with zero transparent groups (the transparent split and tree merge never
 * run) and a single-GPU system (every composition degenerates to a local
 * no-op). The degenerate paths share the image oracle of the full ones.
 * Hand-made traces also check that sub-image state a group does not reset
 * never leaks into a later group, that a draw overlapping itself keeps its
 * later fragment when opaque fragments fold into the render target, and
 * that a transparent group with fewer draws than GPUs composes exactly.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

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

/** A one-tile 64x64 trace whose draws are appended by @ref add. */
struct HandTrace
{
    FrameTrace t;

    HandTrace(const char *name, float clear_depth)
    {
        t.name = name;
        t.viewport = {64, 64};
        t.clear_depth = clear_depth;
    }

    /** A new draw; transparent ones, and Never (the depth test off),
     *  disable the depth test. */
    DrawCommand &
    add(DepthFunc func, BlendOp op)
    {
        DrawCommand cmd;
        cmd.id = static_cast<DrawId>(t.draws.size());
        cmd.backface_cull = false;
        cmd.state.depth_func = func;
        cmd.state.blend_op = op;
        if (isTransparent(op) || func == DepthFunc::Never) {
            cmd.state.depth_test = false;
            cmd.state.depth_write = false;
        }
        t.draws.push_back(std::move(cmd));
        return t.draws.back();
    }
};

/**
 * Seven distributed groups on one 64x64 tile of render target 0, cleared
 * to depth 0.5, built so that sub-image state left over from one group
 * would show in a later one. Opaque sub-images are cleaned after each
 * group by restoring the pixels it wrote, and refilled only when a group
 * needs another clear depth:
 *  - A (opaque, LessEqual): a near red and a far blue quad over region R,
 *    on different GPUs, so one sub-image holds a losing blue R;
 *  - B (opaque, Always): a green quad over the disjoint region S, then a
 *    yellow one on the other GPU. A written mask left by A adds R to B's
 *    composition payload;
 *  - H (opaque, LessEqual, the same clear depth as A): a quad over S at
 *    depth 0.7, then one at 0.8 that loses to it. The first lands on the
 *    GPU that drew B's green at 0.625, so a depth B left there would hide
 *    it and show the second;
 *  - G (opaque, GreaterEqual): a quad over region T, which no earlier
 *    group wrote. It passes the 0.5 clear, but would fail every GPU's
 *    sub-image depth if that were not refilled from 1.0 to 0;
 *  - C (transparent Over, depth test off): a half-transparent quad over S
 *    on the first GPU, then one over R on the second. The chunks render
 *    latest first into one scratch surface, so a written mask left by the
 *    R chunk would fold R into the S chunk's partial as well;
 *  - E (transparent Additive): the same split. Its identity equals
 *    Over's, so the scratch surface is not cleared in between: a color
 *    left by C's R chunk would add to E's R, and an accumulator flag left
 *    by C would fold C's partial into E's;
 *  - F (transparent Multiply): the same split, over a scratch surface
 *    that must switch to Multiply's identity 1.0.
 * Every pixel of C, E and F is written by exactly one draw of its group,
 * so the blend sums are the same expressions in every scheme and the
 * content hash is exact.
 */
FrameTrace
staleStateTrace()
{
    HandTrace h("stale-state", 0.5f);
    const float r0 = -0.9f, r1 = -0.1f; // region R (x range)
    const float s0 = 0.1f, s1 = 0.9f;   // region S (x range)
    const float y0 = -0.9f, y1 = 0.3f;  // R and S (y range)
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Opaque), r0, r1, y0, y1,
            -0.5f, {1, 0, 0, 1});
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Opaque), r0, r1, y0, y1,
            0.5f, {0, 0, 1, 1});
    addQuad(h.add(DepthFunc::Always, BlendOp::Opaque), s0, s1, y0, y1,
            0.25f, {0, 1, 0, 1});
    addQuad(h.add(DepthFunc::Always, BlendOp::Opaque), s0, s1, y0, y1,
            0.75f, {1, 1, 0, 1});
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Opaque), s0, s1, y0, y1,
            0.4f, {1, 0, 1, 1});
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Opaque), s0, s1, y0, y1,
            0.6f, {0.5f, 0, 1, 1});
    addQuad(h.add(DepthFunc::GreaterEqual, BlendOp::Opaque), r0, s1, 0.5f,
            0.9f, 0.5f, {0, 1, 1, 1}); // region T
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Over), s0, s1, y0, y1,
            0.0f, {0.75f, 0.5f, 0.25f, 0.5f});
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Over), r0, r1, y0, y1,
            0.0f, {0.25f, 0.5f, 0.75f, 0.5f});
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Additive), s0, s1, y0, y1,
            0.0f, {0.25f, 0.125f, 0.5f, 0.5f});
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Additive), r0, r1, y0, y1,
            0.0f, {0.5f, 0.25f, 0.125f, 0.5f});
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Multiply), s0, s1, y0, y1,
            0.0f, {0.5f, 0.75f, 0.25f, 1.0f});
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Multiply), r0, r1, y0, y1,
            0.0f, {0.25f, 0.5f, 0.75f, 1.0f});
    return h.t;
}

/**
 * One opaque group per function in @p funcs, each a single draw over its
 * own vertical strip that covers the strip twice at equal depth: first in
 * red, then in green. In-order rendering keeps green under every function
 * that accepts equality (LessEqual, GreaterEqual, Always, the depth test
 * off) and red under a strict one. Depth is cleared to 0.5, between the
 * quads of the Less and the Greater families.
 */
FrameTrace
selfOverlapTrace(const std::vector<DepthFunc> &funcs)
{
    HandTrace h("self-overlap", 0.5f);
    float width = 1.8f / static_cast<float>(funcs.size());
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        float x0 = -0.9f + width * static_cast<float>(i);
        float z = prefersSmaller(funcs[i]) ? -0.5f : 0.5f;
        DrawCommand &cmd = h.add(funcs[i], BlendOp::Opaque);
        addQuad(cmd, x0, x0 + width, -0.9f, 0.9f, z, {1, 0, 0, 1});
        addQuad(cmd, x0, x0 + width, -0.9f, 0.9f, z, {0, 1, 0, 1});
    }
    return h.t;
}

/**
 * An Over group and a Multiply group of two draws each, over the disjoint
 * regions L and R, on top of an opaque background quad. With 4 GPUs the
 * equal-triangle split leaves two GPUs without draws in each group. Each
 * pixel is written by one draw per group, so the hash is exact.
 */
FrameTrace
fewTransparentDrawsTrace()
{
    HandTrace h("few-transparent-draws", 1.0f);
    addQuad(h.add(DepthFunc::LessEqual, BlendOp::Opaque), -0.9f, 0.9f, -0.9f,
            0.9f, 0.0f, {0.5f, 0.25f, 0.75f, 1});
    addQuad(h.add(DepthFunc::Always, BlendOp::Over), -0.9f, -0.1f, -0.9f,
            0.9f, 0.0f, {0.75f, 0.5f, 0.25f, 0.5f});
    addQuad(h.add(DepthFunc::Always, BlendOp::Over), 0.1f, 0.9f, -0.9f,
            0.9f, 0.0f, {0.25f, 0.5f, 0.75f, 0.25f});
    addQuad(h.add(DepthFunc::Always, BlendOp::Multiply), -0.9f, -0.1f,
            -0.5f, 0.5f, 0.0f, {0.5f, 0.75f, 0.25f, 1.0f});
    addQuad(h.add(DepthFunc::Always, BlendOp::Multiply), 0.1f, 0.9f, -0.5f,
            0.5f, 0.0f, {0.25f, 0.5f, 0.75f, 1.0f});
    return h.t;
}

/** Run @p scheme and SingleGpu; expect every group distributed and
 *  identical content. */
void
expectMatchesSingleGpu(Scheme scheme, const SystemConfig &cfg,
                       const FrameTrace &trace, FrameResult *out = nullptr)
{
    std::vector<CompositionGroup> groups = formGroups(trace);
    for (const CompositionGroup &g : groups)
        EXPECT_TRUE(groupDistributable(g, cfg.group_threshold))
            << "group " << g.id;
    FrameResult ref = runScheme(Scheme::SingleGpu, cfg, trace);
    FrameResult r = runScheme(scheme, cfg, trace);
    EXPECT_EQ(r.groups_distributed, groups.size()) << toString(scheme);
    EXPECT_EQ(r.content_hash, ref.content_hash) << toString(scheme);
    ImageDiff diff = compareImages(ref.image, r.image);
    EXPECT_EQ(diff.differing_pixels, 0)
        << toString(scheme) << ": first at (" << diff.first_x << ","
        << diff.first_y << ")";
    if (out != nullptr)
        *out = std::move(r);
}

/**
 * Composition bytes of staleStateTrace() on 2 GPUs with the default
 * payload, as counted when every group rendered into freshly reset
 * full-surface sub-images and merged them after the group.
 */
constexpr Bytes staleStatePayloadBytes = 110592;

class ChopinEdgeTest : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(ChopinEdgeTest, StaleSubImageStateStaysHidden)
{
    // A group restores only the sub-image state its draws read: depth and
    // the written mask of the opaque sub-images, and the color and written
    // mask of the transparent scratch surface. Nothing earlier groups or
    // chunks wrote may reach a later one.
    Scheme scheme = GetParam();
    FrameTrace trace = staleStateTrace();
    SystemConfig cfg;
    cfg.num_gpus = 2;
    cfg.group_threshold = 1;
    std::vector<CompositionGroup> groups = formGroups(trace);
    ASSERT_EQ(groups.size(), 7u);
    for (const CompositionGroup &g : groups)
        EXPECT_EQ(g.render_target, 0u);
    EXPECT_EQ(groups[4].blend_op, BlendOp::Over);
    EXPECT_EQ(groups[5].blend_op, BlendOp::Additive);
    EXPECT_EQ(groups[6].blend_op, BlendOp::Multiply);

    FrameResult r;
    expectMatchesSingleGpu(scheme, cfg, trace, &r);
    // Since opaque fragments fold into the render target as they land, a
    // stale written mask no longer reaches the image, only the payload:
    // these are the composition bytes with every sub-image fresh.
    EXPECT_EQ(r.traffic.ofClass(TrafficClass::Composition),
              staleStatePayloadBytes)
        << toString(scheme);
}

TEST_P(ChopinEdgeTest, DrawOverlappingItselfKeepsItsLaterFragment)
{
    // Folding keeps a running maximum under opaqueWins' order, in which
    // two writes of one draw tie on the writer id; the later must win.
    Scheme scheme = GetParam();
    std::vector<DepthFunc> funcs = {DepthFunc::LessEqual,
                                    DepthFunc::GreaterEqual, DepthFunc::Less,
                                    DepthFunc::Never};
    FrameTrace trace = selfOverlapTrace(funcs);
    SystemConfig cfg;
    cfg.num_gpus = 2;
    cfg.group_threshold = 1;
    ASSERT_EQ(formGroups(trace).size(), funcs.size());
    FrameResult r;
    expectMatchesSingleGpu(scheme, cfg, trace, &r);
    // Sample the middle of each strip: green unless the function is
    // strict, and in no case the clear color.
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        int x = static_cast<int>((0.05f + 0.9f * (static_cast<float>(i) +
                                                  0.5f) /
                                              static_cast<float>(
                                                  funcs.size())) *
                                 64.0f);
        // Interpolation leaves the channels an ulp off 1.0.
        Color c = r.image.at(x, 32);
        bool green = funcs[i] != DepthFunc::Less;
        EXPECT_GT(green ? c.g : c.r, 0.99f) << "strip " << i;
        EXPECT_EQ(green ? c.r : c.g, 0.0f) << "strip " << i;
    }
}

TEST_P(ChopinEdgeTest, TransparentGroupWithFewerDrawsThanGpus)
{
    Scheme scheme = GetParam();
    FrameTrace trace = fewTransparentDrawsTrace();
    SystemConfig cfg;
    cfg.num_gpus = 4;
    cfg.group_threshold = 1;
    std::vector<CompositionGroup> groups = formGroups(trace);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[1].blend_op, BlendOp::Over);
    EXPECT_EQ(groups[2].blend_op, BlendOp::Multiply);
    for (const CompositionGroup &g : groups)
        EXPECT_LT(g.last_draw - g.first_draw + 1, cfg.num_gpus);
    expectMatchesSingleGpu(scheme, cfg, trace);
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
