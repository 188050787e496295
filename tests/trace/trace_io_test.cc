#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "trace/generator.hh"
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

/** Overwrite the u64 that starts @p from_end bytes before the end of the
 *  file at @p path. */
void
patchU64FromEnd(const std::string &path, long from_end, std::uint64_t value)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -from_end, SEEK_END), 0);
    ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
    std::fclose(f);
}

TEST(TraceIo, RejectsCountsLargerThanTheFile)
{
    // A tiny file declaring 2^28 triangles (within the sanity cap) for its
    // one draw: allocating for the declared count would need ~22 GB, so
    // the loaders must compare it against the bytes left in the file and
    // fail cleanly instead of dying in the allocator.
    FrameTrace tiny;
    tiny.name = "tiny";
    tiny.draws.resize(1); // no triangles: the count is the last word
    std::string path = ::testing::TempDir() + "/chopin_hugecount.bin";
    ASSERT_TRUE(saveTrace(tiny, path));
    patchU64FromEnd(path, sizeof(std::uint64_t), std::uint64_t(1) << 28);

    FrameTrace t;
    EXPECT_FALSE(loadTrace(t, path));
    SequenceTrace seq;
    EXPECT_FALSE(loadSequence(seq, path));

    // The same for a v4 frame count: one frame with no overrides ends in
    // (frame count, view_proj, override count).
    ASSERT_TRUE(saveSequence(sequenceFromFrame(tiny), path));
    patchU64FromEnd(path, sizeof(std::uint64_t) + sizeof(Mat4) +
                              sizeof(std::uint64_t),
                    std::uint64_t(1) << 20);
    EXPECT_FALSE(loadSequence(seq, path));
    EXPECT_FALSE(loadTrace(t, path));
    std::remove(path.c_str());
}

} // namespace
} // namespace chopin
