/**
 * @file
 * Per-thread renderer scratch reuse. Each simulating thread keeps one
 * RenderScratch (gfx/renderer.hh) whose arena is rewound, not freed,
 * between draws; the second frame on a thread therefore runs entirely on
 * recycled storage and must not see anything the first one left behind.
 *
 * That a frame cannot observe the host job count at all is enforced
 * structurally: lint rule `parallel-site` keeps parallelFor out of
 * everything runScheme reaches.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace chopin
