/**
 * @file
 * A render surface: color image + depth buffer + per-pixel bookkeeping.
 *
 * Surfaces back three things: the single-GPU reference framebuffer, each
 * GPU's region-owned slice of the final image, and CHOPIN's per-GPU
 * sub-images. The per-pixel `lastWriter` draw id exists so that image
 * composition can resolve equal-depth fragments exactly the way an in-order
 * single GPU would have (first writer wins for strict comparisons, last
 * writer wins for comparisons that accept equality) — without it the oracle
 * tests would be flaky on depth ties.
 */

#ifndef CHOPIN_GFX_SURFACE_HH
#define CHOPIN_GFX_SURFACE_HH

#include <cstdint>
#include <vector>

#include "gfx/raster.hh"
#include "gfx/state.hh"
#include "util/image.hh"
#include "util/types.hh"

namespace chopin
{

/** Sentinel draw id for "no draw has written this pixel". */
inline constexpr DrawId noWriter = ~DrawId(0);

/** Color + depth + writer-id render surface. */
class Surface
{
  public:
    Surface() = default;

    /** A @p w x @p h surface in the state clear(@p c, @p z) leaves. */
    Surface(int w, int h, const Color &c = Color(), float z = 1.0f);

    int width() const { return img.width(); }
    int height() const { return img.height(); }

    /** Reset color to @p c, depth to @p z, writers to none. */
    void clear(const Color &c, float z);

    /**
     * Reset only the state a draw reads before it writes: depth to @p z,
     * stencil to 0 and the written mask to 0. Color and writer ids keep
     * whatever the last use left there, so after this call they are
     * defined only where writtenAt() is true; every reader must gate on
     * writtenAt() first. A caller whose draws blend (and so read the
     * destination color) must also clear color() itself.
     */
    void resetReadState(float z);

    const Image &color() const { return img; }
    Image &color() { return img; }

    float depthAt(int x, int y) const { return depth[idx(x, y)]; }
    void setDepth(int x, int y, float z) { depth[idx(x, y)] = z; }

    DrawId writerAt(int x, int y) const { return lastWriter[idx(x, y)]; }
    void setWriter(int x, int y, DrawId d) { lastWriter[idx(x, y)] = d; }

    bool writtenAt(int x, int y) const { return written[idx(x, y)] != 0; }
    void markWritten(int x, int y) { written[idx(x, y)] = 1; }

    std::uint8_t stencilAt(int x, int y) const { return stencil[idx(x, y)]; }
    void setStencil(int x, int y, std::uint8_t v) { stencil[idx(x, y)] = v; }

    /**
     * Process one fragment through the depth test / shading / blend flow
     * under @p state, updating @p stats. @p draw identifies the draw command
     * for writer bookkeeping; @p alpha_ref is the alpha-test threshold used
     * when state.shader_discard is set.
     */
    void applyFragment(const Fragment &frag, const RasterState &state,
                       DrawId draw, float alpha_ref, DrawStats &stats);

    /**
     * Order-independent content hash over color, depth and written-mask
     * state. Two surfaces hash equal iff their pixel state is bit-identical,
     * which is the cross-scheme equality the paper's bit-exact composition
     * claim rests on; see frameHash() for the image-only variant.
     */
    std::uint64_t contentHash() const;

    /**
     * contentHash() given @p frame_hash == frameHash(color()): continues
     * that FNV state over depth and the written mask, so a caller that
     * already holds the frame hash does not hash the color image twice.
     */
    std::uint64_t contentHashFrom(std::uint64_t frame_hash) const;

  private:
    std::size_t
    idx(int x, int y) const
    {
        return static_cast<std::size_t>(y) * img.width() + x;
    }

    Image img;
    std::vector<float> depth;
    std::vector<DrawId> lastWriter;
    std::vector<std::uint8_t> written;
    std::vector<std::uint8_t> stencil;
};

/** Apply blend operator @p op: @p src over/into @p dst (both straight RGBA
 *  except that a surface's stored color is treated as already-composited). */
Color blendPixel(BlendOp op, const Color &src, const Color &dst);

/**
 * FNV-1a hash of an image's pixel bits. Per-scheme framebuffer hashes are
 * the cheap equality hook: schemes reproducing the same frame must produce
 * the same hash as the single-GPU reference.
 */
std::uint64_t frameHash(const Image &img);

} // namespace chopin

#endif // CHOPIN_GFX_SURFACE_HH
