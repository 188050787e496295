/**
 * @file
 * Per-thread renderer scratch reuse. Each simulating thread keeps one
 * RenderScratch (gfx/renderer.hh) whose vectors are cleared, not freed,
 * between draws; the second frame on a thread therefore runs entirely on
 * recycled storage and must not see anything the first one left behind.
 *
 * That a frame cannot observe the host job count at all is enforced
 * structurally: lint rule `parallel-site` keeps parallelFor out of
 * everything runScheme reaches.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "gfx/renderer.hh"
#include "sfr/schemes.hh"
#include "stats/metrics.hh"
#include "trace/generator.hh"

namespace chopin
{
namespace
{

TEST(ParallelDeterminism, RendererScratchIsReusedAcrossDraws)
{
    // Rendering the same trace twice in a row on one thread (the second
    // run reuses all scratch capacity) must produce identical results —
    // every registered metric, not a hand-picked subset.
    SystemConfig cfg;
    cfg.num_gpus = 4;
    FrameTrace trace = generateBenchmark("nfs", 32);
    FrameResult a = runScheme(Scheme::Chopin, cfg, trace);
    FrameResult b = runScheme(Scheme::Chopin, cfg, trace);
    const FrameAccounting &fa = a;
    const FrameAccounting &fb = b;
    EXPECT_TRUE(metricsEqual(fa, fb))
        << "differing metrics: "
        << ::testing::PrintToString(metricsDiff(fa, fb));
}

TEST(ParallelDeterminism, SteadyStateDrawsAllocateNoScratch)
{
    // The first frame grows the thread's scratch to the largest draw it
    // holds; rendering the same frame again must fit in that capacity, so
    // a draw in steady state performs no heap allocation for it.
    SystemConfig cfg;
    cfg.num_gpus = 4;
    FrameTrace trace = generateBenchmark("nfs", 32);
    runScheme(Scheme::Chopin, cfg, trace);
    const RenderScratch &scratch = threadRenderScratch();
    const ScreenTriangle *data = scratch.screen_tris.data();
    std::size_t capacity = scratch.screen_tris.capacity();
    ASSERT_GT(capacity, 0u);

    runScheme(Scheme::Chopin, cfg, trace);
    EXPECT_EQ(scratch.screen_tris.data(), data);
    EXPECT_EQ(scratch.screen_tris.capacity(), capacity);

    // The capacity is kept across draws, not given back and regrown: a
    // frame of one-triangle draws leaves it as the larger frame left it.
    FrameTrace small = trace;
    for (DrawCommand &d : small.draws)
        d.triangles.resize(std::min<std::size_t>(d.triangles.size(), 1));
    runScheme(Scheme::Chopin, cfg, small);
    EXPECT_EQ(scratch.screen_tris.data(), data);
    EXPECT_EQ(scratch.screen_tris.capacity(), capacity);
}

} // namespace
} // namespace chopin
