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
 * tests would be flaky on depth ties. A sub-image (Surface::subImage())
 * keeps only depth and the written mask; its colors and writer ids go to a
 * per-write callback instead (see renderDraw()).
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

    /**
     * A @p w x @p h sub-image: depth at @p z and an empty written mask,
     * with no color, writer or stencil plane (5 B/px instead of 26). Only
     * applySubImageFragment() writes it, so it serves opaque draws that
     * leave the stencil alone.
     */
    static Surface subImage(int w, int h, float z = 1.0f);

    int width() const { return _width; }
    int height() const { return _height; }

    /** True for a surface made by subImage(). */
    bool isSubImage() const { return sub_image; }

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
    void unmarkWritten(int x, int y) { written[idx(x, y)] = 0; }

    /** Row @p y of the written mask: width() bytes, each 0 or 1. */
    const std::uint8_t *
    writtenRow(int y) const
    {
        return written.data() + idx(0, y);
    }

    std::uint8_t stencilAt(int x, int y) const { return stencil[idx(x, y)]; }
    void setStencil(int x, int y, std::uint8_t v) { stencil[idx(x, y)] = v; }

    /**
     * Process one fragment through the depth test / shading / blend flow
     * under @p state, updating @p stats. @p draw identifies the draw command
     * for writer bookkeeping; @p alpha_ref is the alpha-test threshold used
     * when state.shader_discard is set.
     *
     * @return true if the fragment was written.
     * @pre !isSubImage()
     */
    bool
    applyFragment(const Fragment &frag, const RasterState &state,
                  DrawId draw, float alpha_ref, DrawStats &stats)
    {
        return apply<false>(frag, state, draw, alpha_ref, stats);
    }

    /**
     * applyFragment() on a sub-image: the same tests and counters, but a
     * written fragment stores only its depth and the written mask. The
     * caller keeps the color and writer id from the return value.
     *
     * @pre isSubImage(), state.blend_op is Opaque (nothing reads the
     *      destination color) and !state.stencil_test.
     */
    bool
    applySubImageFragment(const Fragment &frag, const RasterState &state,
                          DrawId draw, float alpha_ref, DrawStats &stats)
    {
        return apply<true>(frag, state, draw, alpha_ref, stats);
    }

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
        return static_cast<std::size_t>(y) * _width + x;
    }

    /** The fragment body of both planes sets; kSubImage skips the color,
     *  writer and stencil stores. */
    template <bool kSubImage>
    bool apply(const Fragment &frag, const RasterState &state, DrawId draw,
               float alpha_ref, DrawStats &stats);

    int _width = 0;
    int _height = 0;
    bool sub_image = false;
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
