#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdio>

#include "trace/generator.hh"
#include "trace/profile.hh"
#include "trace/trace_io.hh"

namespace chopin
{
namespace
{

TEST(TraceIo, RoundTripPreservesEverything)
{
    FrameTrace original = generateBenchmark("cod2", 16);
    std::string path = ::testing::TempDir() + "/chopin_trace.bin";
    ASSERT_TRUE(saveTrace(original, path));

    FrameTrace loaded;
    ASSERT_TRUE(loadTrace(loaded, path));
    std::remove(path.c_str());

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.full_name, original.full_name);
    EXPECT_EQ(loaded.viewport.width, original.viewport.width);
    EXPECT_EQ(loaded.viewport.height, original.viewport.height);
    EXPECT_EQ(loaded.num_render_targets, original.num_render_targets);
    ASSERT_EQ(loaded.draws.size(), original.draws.size());
    for (std::size_t i = 0; i < original.draws.size(); ++i) {
        const DrawCommand &a = original.draws[i];
        const DrawCommand &b = loaded.draws[i];
        ASSERT_EQ(a.id, b.id);
        ASSERT_TRUE(a.state == b.state);
        ASSERT_EQ(a.alpha_ref, b.alpha_ref);
        ASSERT_EQ(a.backface_cull, b.backface_cull);
        ASSERT_EQ(a.texture_rt, b.texture_rt);
        ASSERT_EQ(a.triangles.size(), b.triangles.size());
        for (std::size_t k = 0; k < a.triangles.size(); ++k) {
            for (int v = 0; v < 3; ++v) {
                ASSERT_EQ(a.triangles[k].v[v].pos.x,
                          b.triangles[k].v[v].pos.x);
                ASSERT_EQ(a.triangles[k].v[v].pos.z,
                          b.triangles[k].v[v].pos.z);
                ASSERT_EQ(a.triangles[k].v[v].color, b.triangles[k].v[v].color);
            }
        }
    }
}

TEST(TraceIo, MissingFileReturnsFalse)
{
    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, "/nonexistent/path/trace.bin"));
}

TEST(TraceIo, RejectsNonTraceFile)
{
    std::string path = ::testing::TempDir() + "/not_a_trace.bin";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[] = "this is not a trace file at all............";
        std::fwrite(junk, 1, sizeof(junk), f);
        std::fclose(f);
    }
    // The load contract (trace_io.hh) is false + diagnostic, never fatal.
    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, path));
    SequenceTrace seq;
    EXPECT_FALSE(loadSequence(seq, path));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncatedFile)
{
    FrameTrace original = generateBenchmark("wolf", 32);
    std::string path = ::testing::TempDir() + "/chopin_trunc.bin";
    ASSERT_TRUE(saveTrace(original, path));
    // Truncate to half.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
    }
    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, path));
    SequenceTrace seq;
    EXPECT_FALSE(loadSequence(seq, path));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsUnsupportedVersionCleanly)
{
    FrameTrace original = generateBenchmark("wolf", 32);
    std::string path = ::testing::TempDir() + "/chopin_badver.bin";
    ASSERT_TRUE(saveTrace(original, path));
    // Patch the version word (bytes 4..7, after the magic) to a future
    // version: the loaders must return false with a diagnostic, not
    // fatal() — callers decide whether that is fatal for them.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::uint32_t future = 99;
        ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(&future, sizeof(future), 1, f), 1u);
        std::fclose(f);
    }
    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, path));
    SequenceTrace seq;
    EXPECT_FALSE(loadSequence(seq, path));
    std::remove(path.c_str());
}

/** Overwrite the value that starts @p from_end bytes before the end of
 *  the file at @p path. */
template <typename T>
void
patchFromEnd(const std::string &path, long from_end, T value)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -from_end, SEEK_END), 0);
    ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
    std::fclose(f);
}

/**
 * A valid two-target frame with one draw and no triangles, so the draw's
 * fields end the v3 file: the cases below break exactly one field of it.
 */
FrameTrace
tinyFrame()
{
    FrameTrace t;
    t.name = "tiny";
    t.viewport = {64, 48};
    t.num_render_targets = 2;
    t.num_depth_buffers = 2;
    t.draws.resize(1);
    return t;
}

/**
 * Save @p trace as v3 and as a one-frame v4 sequence; @return whether it
 * loads back. Both loaders must agree on both files. The files are named
 * after the running test, so tests run as parallel processes do not share
 * them.
 */
bool
loadsBack(const FrameTrace &trace)
{
    std::string base =
        ::testing::TempDir() + "/chopin_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string v3 = base + "_v3.bin";
    std::string v4 = base + "_v4.bin";
    EXPECT_TRUE(saveTrace(trace, v3));
    EXPECT_TRUE(saveSequence(sequenceFromFrame(trace), v4));
    FrameTrace t;
    SequenceTrace seq;
    bool ok = loadTrace(t, v3);
    EXPECT_EQ(loadSequence(seq, v3), ok);
    EXPECT_EQ(loadTrace(t, v4), ok);
    EXPECT_EQ(loadSequence(seq, v4), ok);
    std::remove(v3.c_str());
    std::remove(v4.c_str());
    return ok;
}

TEST(TraceIo, RejectsCountsLargerThanTheFile)
{
    // A tiny file declaring 2^28 triangles (within the sanity cap) for its
    // one draw: allocating for the declared count would need ~22 GB, so
    // the loaders must compare it against the bytes left in the file and
    // fail cleanly instead of dying in the allocator.
    FrameTrace tiny = tinyFrame();
    std::string path = ::testing::TempDir() + "/chopin_hugecount.bin";
    ASSERT_TRUE(saveTrace(tiny, path));
    patchFromEnd(path, sizeof(std::uint64_t), std::uint64_t(1) << 28);

    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, path));
    SequenceTrace seq;
    EXPECT_FALSE(loadSequence(seq, path));

    // The same for a v4 frame count: one frame with no overrides ends in
    // (frame count, view_proj, override count).
    ASSERT_TRUE(saveSequence(sequenceFromFrame(tiny), path));
    patchFromEnd(path, sizeof(std::uint64_t) + sizeof(Mat4) +
                           sizeof(std::uint64_t),
                 std::uint64_t(1) << 20);
    EXPECT_FALSE(loadSequence(seq, path));
    EXPECT_FALSE(loadTrace(t, path));
    std::remove(path.c_str());
}


TEST(TraceIo, EveryGeneratedProfileRoundTrips)
{
    // The load-time validation must accept everything the generator makes.
    // Scale 4 keeps every profile's full render-target passes; scale 32
    // takes the reduced small-frame structure.
    std::string path = ::testing::TempDir() + "/chopin_profile.bin";
    for (const BenchmarkProfile &p : allBenchmarkProfiles()) {
        for (int scale : {4, 32}) {
            FrameTrace original = generateTrace(scaleProfile(p, scale));
            ASSERT_TRUE(saveTrace(original, path)) << p.name;
            FrameTrace loaded;
            ASSERT_TRUE(loadTrace(loaded, path)) << p.name << " @" << scale;
            EXPECT_EQ(traceFingerprint(loaded), traceFingerprint(original))
                << p.name << " @" << scale;
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsViewportsOutsideTheLimit)
{
    ASSERT_TRUE(loadsBack(tinyFrame()));
    for (Viewport vp : {Viewport{0, 48}, Viewport{64, 0}, Viewport{-64, 48},
                        Viewport{40000, 40000},
                        Viewport{maxTraceViewportSide + 1, 48},
                        Viewport{64, maxTraceViewportSide + 1}}) {
        FrameTrace t = tinyFrame();
        t.viewport = vp;
        EXPECT_FALSE(loadsBack(t)) << vp.width << "x" << vp.height;
    }
    FrameTrace largest = tinyFrame();
    largest.viewport = {maxTraceViewportSide, maxTraceViewportSide};
    EXPECT_TRUE(loadsBack(largest));
}

TEST(TraceIo, RejectsSurfaceCountsOutsideTheCap)
{
    for (std::uint32_t n : {0u, maxTraceRenderTargets + 1, 4000000000u}) {
        FrameTrace rts = tinyFrame();
        rts.num_render_targets = n;
        EXPECT_FALSE(loadsBack(rts)) << n << " render targets";
        FrameTrace dbs = tinyFrame();
        dbs.num_depth_buffers = n;
        EXPECT_FALSE(loadsBack(dbs)) << n << " depth buffers";
    }
    FrameTrace most = tinyFrame();
    most.num_render_targets = maxTraceRenderTargets;
    most.num_depth_buffers = maxTraceRenderTargets;
    EXPECT_TRUE(loadsBack(most));
}

TEST(TraceIo, RejectsDrawsBindingMissingSurfaces)
{
    FrameTrace rt = tinyFrame();
    rt.draws[0].state.render_target = 9;
    EXPECT_FALSE(loadsBack(rt));

    FrameTrace db = tinyFrame();
    db.draws[0].state.depth_buffer = 2;
    EXPECT_FALSE(loadsBack(db));

    for (std::int32_t tex : {-2, 2}) {
        FrameTrace t = tinyFrame();
        t.draws[0].texture_rt = tex;
        EXPECT_FALSE(loadsBack(t)) << "texture_rt " << tex;
    }

    // SimContext::textureFor asserts a draw never samples its own target.
    FrameTrace self = tinyFrame();
    self.draws[0].texture_rt = 0;
    EXPECT_FALSE(loadsBack(self));
    self.draws[0].state.render_target = 1;
    EXPECT_TRUE(loadsBack(self));
}

TEST(TraceIo, RejectsStateBytesThatNameNoValue)
{
    // The last draw's fields end the file: state, model, alpha_ref,
    // backface_cull, texture_rt, triangle count.
    const long after_cull =
        sizeof(std::int32_t) + sizeof(std::uint64_t);
    const long after_state = sizeof(Mat4) + sizeof(float) + sizeof(bool) +
                             after_cull;
    struct Case
    {
        long from_end;
        std::uint8_t byte;
        const char *what;
    };
    auto stateByte = [&](std::size_t offset) {
        return static_cast<long>(sizeof(RasterState) - offset) + after_state;
    };
    const Case cases[] = {
        {stateByte(offsetof(RasterState, depth_test)), 2, "depth_test"},
        {stateByte(offsetof(RasterState, depth_write)), 0xff, "depth_write"},
        {stateByte(offsetof(RasterState, depth_func)), 8, "depth_func"},
        {stateByte(offsetof(RasterState, blend_op)), 4, "blend_op"},
        {stateByte(offsetof(RasterState, shader_discard)), 2,
         "shader_discard"},
        {stateByte(offsetof(RasterState, stencil_test)), 2, "stencil_test"},
        {stateByte(offsetof(RasterState, stencil_func)), 8, "stencil_func"},
        {stateByte(offsetof(RasterState, stencil_pass_op)), 5,
         "stencil_pass_op"},
        {static_cast<long>(sizeof(bool)) + after_cull, 2, "backface_cull"},
    };
    std::string path = ::testing::TempDir() + "/chopin_badstate.bin";
    for (const Case &c : cases) {
        ASSERT_TRUE(saveTrace(tinyFrame(), path));
        patchFromEnd(path, c.from_end, c.byte);
        FrameTrace t;
        EXPECT_FALSE(loadTrace(t, path)) << c.what;
        SequenceTrace seq;
        EXPECT_FALSE(loadSequence(seq, path)) << c.what;
    }
    // The same patch with a valid value loads: the offsets are right.
    ASSERT_TRUE(saveTrace(tinyFrame(), path));
    patchFromEnd(path, stateByte(offsetof(RasterState, blend_op)),
                 std::uint8_t(BlendOp::Multiply));
    FrameTrace t;
    ASSERT_TRUE(loadTrace(t, path));
    EXPECT_EQ(t.draws[0].state.blend_op, BlendOp::Multiply);
    std::remove(path.c_str());
}

} // namespace
} // namespace chopin
