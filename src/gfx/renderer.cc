#include "gfx/renderer.hh"

#include <cstdint>

#include "util/log.hh"

namespace chopin
{

namespace gfx_detail
{

BinGrid
makeBinGrid(const Viewport &vp, const TileGrid *grid)
{
    BinGrid b;
    if (grid != nullptr) {
        // Bins are the ownership grid's own tiles, so under partitioned
        // rendering every bucket maps to exactly one GPU.
        b.size = grid->tileSize();
        b.nx = grid->tilesX();
        b.ny = grid->tilesY();
    } else {
        b.size = defaultTileSize;
        b.nx = (vp.width + b.size - 1) / b.size;
        b.ny = (vp.height + b.size - 1) / b.size;
    }
    return b;
}

void
runGeometry(std::span<const Triangle> tris, const Mat4 &mvp,
            const Viewport &vp, bool backface_cull, RenderScratch &scratch,
            DrawStats &stats)
{
    // One slab for the worst case: a primitive emits at most two screen
    // triangles (near-plane clip of one-vertex-behind yields a quad).
    scratch.screen_tris.clear();
    scratch.screen_tris.resizeUninitialized(2 * tris.size());
    ScreenTriangle *slab = scratch.screen_tris.data();
    std::size_t count = 0;
    for (const Triangle &tri : tris)
        processPrimitive(tri, mvp, vp, backface_cull, slab, count, stats);
    scratch.screen_tris.shrinkTo(count);
}

void
binTriangles(RenderScratch &scratch, const BinGrid &bins, const Viewport &vp)
{
    std::size_t nbins = static_cast<std::size_t>(bins.count());
    scratch.bin_counts.assign(nbins, 0);

    // Bin overlap comes from the same viewport-clamped bounds helper the
    // rasterizer clips with, so binning and raster coverage cannot drift.
    for (std::uint32_t idx : scratch.kept) {
        PixelRect r =
            scratch.screen_tris[idx].boundsRect(vp.width, vp.height);
        int tx0 = r.x0 / bins.size;
        int tx1 = r.x1 / bins.size;
        int ty0 = r.y0 / bins.size;
        int ty1 = r.y1 / bins.size;
        for (int ty = ty0; ty <= ty1; ++ty)
            for (int tx = tx0; tx <= tx1; ++tx)
                scratch.bin_counts[static_cast<std::size_t>(ty * bins.nx +
                                                            tx)] += 1;
    }

    // Exclusive scan: bin_counts[b] becomes the start offset of bucket b,
    // then serves as the fill cursor. After filling, bin_counts[b] is the
    // *end* offset of bucket b (start of b is the previous bucket's end).
    std::uint32_t total = 0;
    for (std::size_t b = 0; b < nbins; ++b) {
        std::uint32_t count = scratch.bin_counts[b];
        scratch.bin_counts[b] = total;
        total += count;
    }
    scratch.bin_tris.resizeUninitialized(total);

    for (std::uint32_t idx : scratch.kept) {
        PixelRect r =
            scratch.screen_tris[idx].boundsRect(vp.width, vp.height);
        int tx0 = r.x0 / bins.size;
        int tx1 = r.x1 / bins.size;
        int ty0 = r.y0 / bins.size;
        int ty1 = r.y1 / bins.size;
        for (int ty = ty0; ty <= ty1; ++ty)
            for (int tx = tx0; tx <= tx1; ++tx) {
                std::size_t b = static_cast<std::size_t>(ty * bins.nx + tx);
                scratch.bin_tris[scratch.bin_counts[b]++] = idx;
            }
    }

    scratch.dense_bins.clear();
    scratch.dense_bins.reserve(nbins);
    for (std::size_t b = 0; b < nbins; ++b) {
        std::uint32_t lo = b == 0 ? 0 : scratch.bin_counts[b - 1];
        if (scratch.bin_counts[b] > lo)
            scratch.dense_bins.push_back(static_cast<std::uint32_t>(b));
    }
}

} // namespace gfx_detail

RenderScratch &
threadRenderScratch()
{
    // The one sanctioned piece of thread-local state outside util/: scratch
    // ownership is *per thread by construction* (each sweep or stream
    // worker gets a private instance), so no capability guards it —
    // sharing is impossible, not merely locked away. See RenderScratch's
    // ownership contract in gfx/renderer.hh.
    thread_local RenderScratch scratch; // chopin-lint: allow(global-state)
    return scratch;
}

namespace
{

/** renderDraw()'s raster loop for one plane set (see Surface::apply). */
template <bool kSubImage>
void
rasterizeDraw(Surface &surface, const Viewport &vp, const DrawInput &in,
              const RenderFilter &filter,
              std::vector<std::uint8_t> *touched_tiles, const TileGrid *grid,
              const FragmentSink *on_write, const RenderScratch &scratch,
              DrawStats &stats)
{
    PixelRect full{0, 0, vp.width - 1, vp.height - 1};
    for (const ScreenTriangle &st : scratch.screen_tris) {
        if (!filter.mayTouch(st)) {
            // The raster engine rejects the whole primitive against this
            // GPU's tile set without fine rasterization.
            stats.tris_rasterized -= 1;
            stats.tris_coarse_rejected += 1;
            continue;
        }
        rasterizeTriangleInRect(st, vp, full, [&](const Fragment &frag) {
            if (!filter.owns(frag.x, frag.y))
                return;
            Fragment shaded = frag;
            if (in.texture != nullptr) {
                // Screen-space sample: modulate with the texel under
                // the fragment (bloom/post-processing pattern).
                shaded.color =
                    shaded.color * in.texture->at(frag.x, frag.y);
                stats.frags_textured += 1;
            }
            bool wrote;
            if constexpr (kSubImage)
                wrote = surface.applySubImageFragment(
                    shaded, in.state, in.draw_id, in.alpha_ref, stats);
            else
                wrote = surface.applyFragment(shaded, in.state, in.draw_id,
                                              in.alpha_ref, stats);
            if (!wrote)
                return;
            if (touched_tiles != nullptr)
                (*touched_tiles)[static_cast<std::size_t>(
                    grid->tileIndexOfPixel(frag.x, frag.y))] = 1;
            if constexpr (kSubImage)
                (*on_write)(shaded);
        });
    }
}

} // namespace

DrawStats
renderDraw(Surface &surface, const Viewport &vp, const DrawInput &in,
           const RenderFilter &filter, std::vector<std::uint8_t> *touched_tiles,
           const TileGrid *grid, const FragmentSink *on_write)
{
    using namespace gfx_detail;

    chopin_assert(surface.width() == vp.width &&
                  surface.height() == vp.height);
    chopin_assert(touched_tiles == nullptr || grid != nullptr,
                  "touched-tile tracking needs a tile grid");
    chopin_assert(surface.isSubImage() == (on_write != nullptr),
                  "a sub-image draw needs a write sink, and only it");

    RenderScratch &scratch = threadRenderScratch();
    scratch.beginDraw();
    DrawStats stats;
    runGeometry(in.triangles, in.mvp, vp, in.backface_cull, scratch, stats);

    if (surface.isSubImage()) {
        chopin_assert(in.state.blend_op == BlendOp::Opaque &&
                          !in.state.stencil_test,
                      "sub-image draw ", in.draw_id,
                      " must be opaque without a stencil test");
        rasterizeDraw<true>(surface, vp, in, filter, touched_tiles, grid,
                            on_write, scratch, stats);
    } else {
        rasterizeDraw<false>(surface, vp, in, filter, touched_tiles, grid,
                             nullptr, scratch, stats);
    }
    return stats;
}

} // namespace chopin
