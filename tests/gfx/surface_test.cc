#include <gtest/gtest.h>

#include "gfx/surface.hh"
#include "util/rng.hh"

namespace chopin
{
namespace
{

Fragment
frag(int x, int y, float z, Color c = {1, 1, 1, 1})
{
    return {x, y, z, c};
}

RasterState
opaqueState(DepthFunc func = DepthFunc::LessEqual)
{
    RasterState s;
    s.depth_func = func;
    return s;
}

TEST(Surface, ClearResetsEverything)
{
    Surface s(4, 4);
    DrawStats stats;
    s.applyFragment(frag(1, 1, 0.5f), opaqueState(), 7, 0.5f, stats);
    s.clear({0, 0, 0, 0}, 1.0f);
    EXPECT_FALSE(s.writtenAt(1, 1));
    EXPECT_EQ(s.writerAt(1, 1), noWriter);
    EXPECT_FLOAT_EQ(s.depthAt(1, 1), 1.0f);
}

TEST(Surface, ResetReadStateLeavesColorAndWriter)
{
    // The sub-image contract: a reset restores only what a draw reads
    // before writing (depth, stencil, the written mask). Color and writer
    // keep stale values, which is why every reader gates on writtenAt().
    Surface s(4, 4);
    DrawStats stats;
    RasterState st = opaqueState();
    st.stencil_test = true;
    st.stencil_func = DepthFunc::Always;
    st.stencil_pass_op = StencilOp::Replace;
    st.stencil_ref = 5;
    s.applyFragment(frag(1, 2, 0.25f, {0.5f, 0.25f, 0.75f, 1.0f}), st, 7,
                    0.5f, stats);
    s.applyFragment(frag(3, 0, 0.5f, {1, 0, 0, 1}), st, 8, 0.5f, stats);
    ASSERT_EQ(s.stencilAt(1, 2), 5);

    s.resetReadState(0.0f);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            EXPECT_EQ(s.depthAt(x, y), 0.0f) << x << "," << y;
            EXPECT_EQ(s.stencilAt(x, y), 0) << x << "," << y;
            EXPECT_FALSE(s.writtenAt(x, y)) << x << "," << y;
        }
    }
    EXPECT_EQ(s.color().at(1, 2), (Color{0.5f, 0.25f, 0.75f, 1.0f}));
    EXPECT_EQ(s.color().at(3, 0), (Color{1, 0, 0, 1}));
    EXPECT_EQ(s.writerAt(1, 2), 7u);
    EXPECT_EQ(s.writerAt(3, 0), 8u);
    EXPECT_EQ(s.writerAt(0, 0), noWriter);
}

TEST(Surface, ConstructorMatchesClear)
{
    Color c{0.05f, 0.05f, 0.08f, 1.0f};
    Surface built(5, 3, c, 0.0f);
    Surface cleared(5, 3);
    cleared.clear(c, 0.0f);
    EXPECT_EQ(built.contentHash(), cleared.contentHash());
    EXPECT_EQ(built.writerAt(4, 2), noWriter);
    EXPECT_EQ(built.stencilAt(4, 2), 0);
}

TEST(Surface, OpaqueWriteUpdatesAllBuffers)
{
    Surface s(4, 4);
    DrawStats stats;
    s.applyFragment(frag(2, 3, 0.25f, {0.5f, 0.25f, 0.75f, 0.5f}),
                    opaqueState(), 9, 0.5f, stats);
    EXPECT_TRUE(s.writtenAt(2, 3));
    EXPECT_EQ(s.writerAt(2, 3), 9u);
    EXPECT_FLOAT_EQ(s.depthAt(2, 3), 0.25f);
    EXPECT_FLOAT_EQ(s.color().at(2, 3).a, 1.0f); // opaque forces alpha 1
    EXPECT_EQ(stats.frags_early_pass, 1u);
    EXPECT_EQ(stats.frags_written, 1u);
}

/** The composable depth functions, then the depth test off. */
class SubImageTest : public ::testing::TestWithParam<DepthFunc>
{
};

TEST_P(SubImageTest, MatchesFullSurfaceOnRandomFragments)
{
    // The sub-image instantiation of the fragment body must run the same
    // tests and counters as the full surface and store the same depth and
    // written mask; it only skips the color and writer stores.
    DepthFunc func = GetParam();
    float clear_z =
        func == DepthFunc::Greater || func == DepthFunc::GreaterEqual
            ? 0.0f
            : 1.0f;
    constexpr int w = 8;
    constexpr int h = 4;
    Surface full(w, h, Color(), clear_z);
    Surface sub = Surface::subImage(w, h, clear_z);
    ASSERT_TRUE(sub.isSubImage());
    ASSERT_FALSE(full.isSubImage());

    Rng rng(0x5b1u + static_cast<unsigned>(func));
    DrawStats full_stats, sub_stats;
    int written = 0;
    for (int i = 0; i < 4000; ++i) {
        RasterState st;
        st.depth_test = func != DepthFunc::Never;
        st.depth_func = func;
        st.shader_discard = rng.nextBool(0.3);
        // Few depth levels, so ties are common.
        Fragment f = frag(static_cast<int>(rng.nextBounded(w)),
                          static_cast<int>(rng.nextBounded(h)),
                          static_cast<float>(rng.nextBounded(5)) * 0.25f,
                          {rng.nextFloat(), rng.nextFloat(), rng.nextFloat(),
                           rng.nextFloat()});
        DrawId draw = static_cast<DrawId>(i / 16);
        bool a = full.applyFragment(f, st, draw, 0.5f, full_stats);
        bool b = sub.applySubImageFragment(f, st, draw, 0.5f, sub_stats);
        ASSERT_EQ(a, b) << "fragment " << i;
        written += a ? 1 : 0;
    }
    EXPECT_EQ(full_stats, sub_stats);
    EXPECT_GT(written, 0);
    EXPECT_LT(sub_stats.frags_written, sub_stats.frags_shaded); // discards
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            EXPECT_EQ(sub.depthAt(x, y), full.depthAt(x, y)) << x << "," << y;
            EXPECT_EQ(sub.writtenAt(x, y), full.writtenAt(x, y))
                << x << "," << y;
            EXPECT_EQ(sub.writtenRow(y)[x], full.writtenAt(x, y) ? 1 : 0);
        }
    }
}

// DepthFunc::Never stands for the depth test off (it fails everything
// with the test on, so it would exercise nothing).
INSTANTIATE_TEST_SUITE_P(
    ComposableFuncs, SubImageTest,
    ::testing::Values(DepthFunc::Less, DepthFunc::LessEqual,
                      DepthFunc::Greater, DepthFunc::GreaterEqual,
                      DepthFunc::Always, DepthFunc::Never),
    [](const auto &info) {
        return info.param == DepthFunc::Never ? std::string("DepthTestOff")
                                              : toString(info.param);
    });

TEST(Surface, SubImageResetClearsDepthAndMask)
{
    Surface sub = Surface::subImage(3, 2, 0.0f);
    DrawStats st;
    sub.applySubImageFragment(frag(2, 1, 0.5f), opaqueState(DepthFunc::Always),
                              0, 0.5f, st);
    ASSERT_TRUE(sub.writtenAt(2, 1));
    EXPECT_EQ(sub.width(), 3);
    EXPECT_EQ(sub.height(), 2);
    sub.resetReadState(1.0f);
    EXPECT_FALSE(sub.writtenAt(2, 1));
    EXPECT_EQ(sub.depthAt(2, 1), 1.0f);
    EXPECT_TRUE(sub.color().data().empty());
}

/** Depth-function truth table at the fragment level. */
struct DepthCase
{
    DepthFunc func;
    bool pass_closer;
    bool pass_equal;
    bool pass_farther;
};

class DepthFuncTest : public ::testing::TestWithParam<DepthCase>
{
};

TEST_P(DepthFuncTest, FragmentPassMatchesFunction)
{
    DepthCase c = GetParam();
    auto passes = [&](float z_new) {
        Surface s(2, 2);
        DrawStats st;
        s.applyFragment(frag(0, 0, 0.5f), opaqueState(DepthFunc::Always), 0,
                        0.5f, st);
        DrawStats st2;
        s.applyFragment(frag(0, 0, z_new), opaqueState(c.func), 1, 0.5f,
                        st2);
        return s.writerAt(0, 0) == 1u;
    };
    EXPECT_EQ(passes(0.25f), c.pass_closer) << toString(c.func);
    EXPECT_EQ(passes(0.5f), c.pass_equal) << toString(c.func);
    EXPECT_EQ(passes(0.75f), c.pass_farther) << toString(c.func);
}

INSTANTIATE_TEST_SUITE_P(
    AllFuncs, DepthFuncTest,
    ::testing::Values(DepthCase{DepthFunc::Never, false, false, false},
                      DepthCase{DepthFunc::Less, true, false, false},
                      DepthCase{DepthFunc::Equal, false, true, false},
                      DepthCase{DepthFunc::LessEqual, true, true, false},
                      DepthCase{DepthFunc::Greater, false, false, true},
                      DepthCase{DepthFunc::NotEqual, true, false, true},
                      DepthCase{DepthFunc::GreaterEqual, false, true, true},
                      DepthCase{DepthFunc::Always, true, true, true}),
    [](const auto &info) { return toString(info.param.func); });

TEST(Surface, EarlyZCullsBeforeShading)
{
    Surface s(2, 2);
    DrawStats st;
    s.applyFragment(frag(0, 0, 0.2f), opaqueState(), 0, 0.5f, st);
    DrawStats st2;
    s.applyFragment(frag(0, 0, 0.8f), opaqueState(), 1, 0.5f, st2);
    EXPECT_EQ(st2.frags_early_fail, 1u);
    EXPECT_EQ(st2.frags_shaded, 0u); // culled fragments are never shaded
}

TEST(Surface, ShaderDiscardForcesLateZ)
{
    Surface s(2, 2);
    DrawStats st;
    s.applyFragment(frag(0, 0, 0.2f), opaqueState(), 0, 0.5f, st);
    RasterState late = opaqueState();
    late.shader_discard = true;
    DrawStats st2;
    s.applyFragment(frag(0, 0, 0.8f, {1, 1, 1, 0.9f}), late, 1, 0.5f, st2);
    EXPECT_EQ(st2.frags_early_fail, 0u);
    EXPECT_EQ(st2.frags_shaded, 1u); // shaded despite being occluded
    EXPECT_EQ(st2.frags_late_fail, 1u);
    EXPECT_EQ(s.writerAt(0, 0), 0u);
}

TEST(Surface, AlphaTestDiscardsLowAlpha)
{
    Surface s(2, 2);
    RasterState st = opaqueState();
    st.shader_discard = true;
    DrawStats stats;
    s.applyFragment(frag(0, 0, 0.5f, {1, 1, 1, 0.2f}), st, 3, 0.5f, stats);
    EXPECT_FALSE(s.writtenAt(0, 0));
    EXPECT_EQ(stats.frags_shaded, 1u);
    EXPECT_EQ(stats.frags_written, 0u);
}

TEST(Surface, DepthWriteDisabledKeepsDepth)
{
    Surface s(2, 2);
    RasterState st = opaqueState();
    st.depth_write = false;
    DrawStats stats;
    s.applyFragment(frag(0, 0, 0.25f), st, 0, 0.5f, stats);
    EXPECT_TRUE(s.writtenAt(0, 0));
    EXPECT_FLOAT_EQ(s.depthAt(0, 0), 1.0f); // unchanged
}

TEST(Surface, DepthTestDisabledAlwaysWrites)
{
    Surface s(2, 2);
    RasterState st = opaqueState();
    DrawStats stats;
    s.applyFragment(frag(0, 0, 0.1f), st, 0, 0.5f, stats);
    RasterState no_test = opaqueState();
    no_test.depth_test = false;
    DrawStats stats2;
    s.applyFragment(frag(0, 0, 0.9f), no_test, 1, 0.5f, stats2);
    EXPECT_EQ(s.writerAt(0, 0), 1u);
    EXPECT_FLOAT_EQ(s.depthAt(0, 0), 0.1f); // no depth update either
    EXPECT_EQ(stats2.frags_early_pass + stats2.frags_late_pass, 0u);
}

TEST(SurfaceHash, IdenticalContentHashesEqual)
{
    Surface a(8, 8), b(8, 8);
    a.clear({0.1f, 0.2f, 0.3f, 1.0f}, 1.0f);
    b.clear({0.1f, 0.2f, 0.3f, 1.0f}, 1.0f);
    DrawStats st;
    a.applyFragment(frag(3, 4, 0.5f, {1, 0, 0, 1}), opaqueState(), 2, 0.5f,
                    st);
    b.applyFragment(frag(3, 4, 0.5f, {1, 0, 0, 1}), opaqueState(), 2, 0.5f,
                    st);
    EXPECT_EQ(a.contentHash(), b.contentHash());
    EXPECT_EQ(frameHash(a.color()), frameHash(b.color()));
}

TEST(SurfaceHash, SinglePixelChangeChangesHash)
{
    Surface a(8, 8), b(8, 8);
    a.clear({0, 0, 0, 1}, 1.0f);
    b.clear({0, 0, 0, 1}, 1.0f);
    DrawStats st;
    b.applyFragment(frag(7, 7, 0.5f, {0, 1, 0, 1}), opaqueState(), 0, 0.5f,
                    st);
    EXPECT_NE(a.contentHash(), b.contentHash());
    EXPECT_NE(frameHash(a.color()), frameHash(b.color()));
}

TEST(SurfaceHash, DimensionsFeedTheHash)
{
    // A 2x8 and an 8x2 image with identical bytes must not collide.
    Surface a(2, 8), b(8, 2);
    a.clear({0.5f, 0.5f, 0.5f, 1.0f}, 1.0f);
    b.clear({0.5f, 0.5f, 0.5f, 1.0f}, 1.0f);
    EXPECT_NE(frameHash(a.color()), frameHash(b.color()));
}

TEST(SurfaceHash, DepthOnlyChangeChangesContentHash)
{
    Surface a(4, 4), b(4, 4);
    a.clear({0, 0, 0, 1}, 1.0f);
    b.clear({0, 0, 0, 1}, 0.5f);
    EXPECT_EQ(frameHash(a.color()), frameHash(b.color()));
    EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(SurfaceHash, ContentHashFromContinuesTheFrameHash)
{
    Surface s(4, 4);
    s.clear({0.25f, 0, 0, 1}, 0.5f);
    DrawStats st;
    s.applyFragment(frag(2, 1, 0.125f), opaqueState(), 3, 0.5f, st);
    EXPECT_EQ(s.contentHashFrom(frameHash(s.color())), s.contentHash());
}

TEST(Blend, OverMatchesFormula)
{
    Color src{1.0f, 0.0f, 0.0f, 0.25f};
    Color dst{0.0f, 1.0f, 0.0f, 1.0f};
    Color out = blendPixel(BlendOp::Over, src, dst);
    EXPECT_NEAR(out.r, 0.25f, 1e-6f);
    EXPECT_NEAR(out.g, 0.75f, 1e-6f);
    EXPECT_NEAR(out.a, 1.0f, 1e-6f);
}

TEST(Blend, AdditiveAccumulates)
{
    Color out = blendPixel(BlendOp::Additive, {0.5f, 0.5f, 0.5f, 0.5f},
                           {0.2f, 0.2f, 0.2f, 1.0f});
    EXPECT_NEAR(out.r, 0.45f, 1e-6f);
}

TEST(Blend, MultiplyModulates)
{
    Color out = blendPixel(BlendOp::Multiply, {0.5f, 1.0f, 0.0f, 1.0f},
                           {0.8f, 0.5f, 0.9f, 1.0f});
    EXPECT_NEAR(out.r, 0.4f, 1e-6f);
    EXPECT_NEAR(out.g, 0.5f, 1e-6f);
    EXPECT_NEAR(out.b, 0.0f, 1e-6f);
}

} // namespace
} // namespace chopin
