#include <gtest/gtest.h>

#include "sfr/schemes.hh"
#include "trace/generator.hh"

namespace chopin
{
namespace
{

const FrameTrace &
testTrace()
{
    static FrameTrace trace = generateBenchmark("grid", 16);
    return trace;
}

/** A smaller grid whose width is no multiple of 8, so tiles end in
 *  partial sub-tiles and partial mask words. */
const FrameTrace &
oddWidthTrace()
{
    static FrameTrace trace = generateBenchmark("grid", 32);
    return trace;
}

FrameResult
runWithPayload(CompPayload payload, const FrameTrace &trace = testTrace())
{
    SystemConfig cfg;
    cfg.num_gpus = 8;
    cfg.comp_payload = payload;
    return runChopin(cfg, trace, {DrawPolicy::FewestRemaining, true, false});
}

TEST(CompPayload, GranularityOrdersTraffic)
{
    FrameResult pixels = runWithPayload(CompPayload::WrittenPixels);
    FrameResult subtiles = runWithPayload(CompPayload::SubTiles);
    FrameResult tiles = runWithPayload(CompPayload::FullTiles);
    Bytes a = pixels.traffic.ofClass(TrafficClass::Composition);
    Bytes b = subtiles.traffic.ofClass(TrafficClass::Composition);
    Bytes c = tiles.traffic.ofClass(TrafficClass::Composition);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    // Coarser payloads can only slow the frame down.
    EXPECT_LE(pixels.cycles, subtiles.cycles);
    EXPECT_LE(subtiles.cycles, tiles.cycles);
}

TEST(CompPayload, BytesArePinned)
{
    // The composition bytes of each payload granularity on this trace, as
    // counted by a pixel-at-a-time scan of the written masks. The word-wise
    // scan must count exactly the same pixels.
    ASSERT_NE(oddWidthTrace().viewport.width % 8, 0);
    struct Case
    {
        CompPayload payload;
        Bytes bytes;
        Bytes odd_bytes;
    };
    for (Case c : {Case{CompPayload::WrittenPixels, 1376312, 105728},
                   Case{CompPayload::SubTiles, 2464768, 159680},
                   Case{CompPayload::FullTiles, 8028160, 425552}}) {
        FrameResult r = runWithPayload(c.payload);
        EXPECT_EQ(r.traffic.ofClass(TrafficClass::Composition), c.bytes)
            << toString(c.payload);
        FrameResult odd = runWithPayload(c.payload, oddWidthTrace());
        EXPECT_EQ(odd.traffic.ofClass(TrafficClass::Composition),
                  c.odd_bytes)
            << toString(c.payload) << " at width "
            << oddWidthTrace().viewport.width;
    }
}

TEST(CompPayload, GranularityNeverChangesTheImage)
{
    FrameResult pixels = runWithPayload(CompPayload::WrittenPixels);
    FrameResult tiles = runWithPayload(CompPayload::FullTiles);
    EXPECT_EQ(compareImages(pixels.image, tiles.image).differing_pixels, 0);
}

TEST(TileAssignmentInvariance, BlockedProducesTheSameImage)
{
    SystemConfig cfg;
    cfg.num_gpus = 8;
    FrameResult inter = runChopin(cfg, testTrace(),
                                  {DrawPolicy::FewestRemaining, true,
                                   false});
    cfg.tile_assignment = TileAssignment::Blocked;
    FrameResult blocked = runChopin(cfg, testTrace(),
                                    {DrawPolicy::FewestRemaining, true,
                                     false});
    // Ownership only decides which GPU holds which pixels; the composed
    // frame is identical.
    EXPECT_EQ(compareImages(inter.image, blocked.image).differing_pixels,
              0);
    FrameResult dup_blocked = runDuplication(cfg, testTrace());
    EXPECT_EQ(
        compareImages(inter.image, dup_blocked.image).differing_pixels, 0);
}

TEST(CompPayload, Names)
{
    EXPECT_EQ(toString(CompPayload::WrittenPixels), "written-pixels");
    EXPECT_EQ(toString(CompPayload::SubTiles), "8x8-subtiles");
    EXPECT_EQ(toString(CompPayload::FullTiles), "full-tiles");
}

} // namespace
} // namespace chopin
