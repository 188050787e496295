/**
 * @file
 * The functional renderer: geometry processing + rasterization + fragment
 * operations for one draw command on one surface.
 *
 * Every SFR scheme funnels through this code; schemes only choose which GPU
 * executes a draw, which pixels that GPU keeps (the @ref RenderFilter), and
 * how the resulting surfaces are merged.
 *
 * The renderer is serial and bit-deterministic: geometry processing emits
 * screen triangles in primitive order, and rasterization walks them in
 * that order over the full viewport, so late-depth/blend results follow
 * draw order exactly. Host parallelism lives one level up, across whole
 * simulations (see DESIGN.md, "Host parallelism vs. simulated
 * parallelism").
 */

#ifndef CHOPIN_GFX_RENDERER_HH
#define CHOPIN_GFX_RENDERER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "gfx/geometry.hh"
#include "gfx/surface.hh"
#include "gfx/tiles.hh"
#include "util/arena.hh"

namespace chopin
{

/**
 * Restricts rasterization to the screen tiles owned by one GPU.
 * A default-constructed filter accepts every pixel (used for CHOPIN
 * sub-image rendering, where each GPU renders its draws full-screen).
 */
struct RenderFilter
{
    const TileGrid *grid = nullptr;
    GpuId gpu = invalidGpu;

    bool
    owns(int x, int y) const
    {
        return grid == nullptr || grid->ownerOfPixel(x, y) == gpu;
    }

    /**
     * Coarse raster reject: can the triangle's bounding box touch any tile
     * this GPU owns? Unfiltered rendering always answers yes.
     */
    bool
    mayTouch(const ScreenTriangle &tri) const
    {
        if (grid == nullptr)
            return true;
        return (grid->overlappedGpus(tri) >> gpu) & 1ULL;
    }
};

/** Inputs of one draw call at the renderer level. */
struct DrawInput
{
    std::span<const Triangle> triangles; ///< object-space primitives
    Mat4 mvp;                            ///< model-view-projection
    RasterState state;
    DrawId draw_id = 0;
    float alpha_ref = 0.5f; ///< alpha-test threshold when shader_discard
    bool backface_cull = true;
    /** Texture sampled at the fragment's screen position (may be null).
     *  Must match the viewport dimensions. */
    const Image *texture = nullptr;
};

/**
 * Reusable per-thread scratch for the renderer: geometry outputs, the
 * coarse-filter keep list and the tile-bucket CSR that perfbench's binning
 * layer builds. All of it lives on one bump @ref Arena that beginDraw()
 * rewinds — after the arena warms up to the largest draw seen, a draw
 * performs zero heap allocations. Obtain via threadRenderScratch(); never
 * share one instance across threads.
 *
 * Ownership contract (the per-thread half of the static-analysis layer,
 * see util/sequential.hh for the coordinator half): a RenderScratch is
 * *thread-private by construction* — threadRenderScratch() hands every
 * thread its own thread_local instance, so concurrent simulations (sweep
 * and stream workers) never share one, and no mutex or capability guards
 * the members. Lint rule `global-state` bans any other thread_local or
 * mutable file-scope state outside util/ so this stays the single point
 * of per-thread ownership.
 */
struct RenderScratch
{
    /** Backing store for every member below; rewound by beginDraw(). */
    Arena arena;

    /** Post-geometry screen triangles in draw order. */
    ArenaVector<ScreenTriangle> screen_tris;
    /** Indices into screen_tris that survive the coarse filter. */
    ArenaVector<std::uint32_t> kept;

    // --- tile-bucket CSR (rebuilt per draw by binTriangles) --------------
    ArenaVector<std::uint32_t> bin_counts; ///< per bin, then CSR offsets
    ArenaVector<std::uint32_t> bin_tris;   ///< bucket payload: tri indices
    ArenaVector<std::uint32_t> dense_bins; ///< nonempty bin ids

    /**
     * Start a draw: invalidate the previous draw's transients and rebind
     * every vector to the rewound arena.
     */
    void
    beginDraw()
    {
        arena.reset();
        screen_tris.attach(arena);
        kept.attach(arena);
        bin_counts.attach(arena);
        bin_tris.attach(arena);
        dense_bins.attach(arena);
    }
};

/** The calling thread's scratch instance (thread-local storage). */
RenderScratch &threadRenderScratch();

/**
 * Internals shared between renderDraw(), renderDrawPartitioned() (the
 * sort-first variant in src/sfr) and perfbench's per-layer replay, which
 * times geometry and binning separately. Not a public API.
 */
namespace gfx_detail
{

/** A screen tiling for bucketing triangles by the bins they overlap. */
struct BinGrid
{
    int size = defaultTileSize; ///< bin edge in pixels
    int nx = 0;                 ///< bins per row
    int ny = 0;                 ///< bin rows

    int count() const { return nx * ny; }
};

/**
 * Bins follow @p grid's own tiles when present (under partitioned
 * rendering every bucket then maps to exactly one GPU); otherwise a
 * default 64-pixel tiling of the viewport.
 */
BinGrid makeBinGrid(const Viewport &vp, const TileGrid *grid);

/**
 * Geometry processing for a whole draw, in primitive order. The screen
 * triangles land in scratch.screen_tris (a primitive emits at most two
 * after near-plane clipping); counters merge into @p stats.
 *
 * Requires scratch.beginDraw() to have run for this draw.
 */
void runGeometry(std::span<const Triangle> tris, const Mat4 &mvp,
                 const Viewport &vp, bool backface_cull,
                 RenderScratch &scratch, DrawStats &stats);

/**
 * Build the tile-bucket CSR over scratch.kept (indices into
 * scratch.screen_tris, in draw order). On return: bucket b's payload is
 * scratch.bin_tris[(b ? bin_counts[b-1] : 0) .. bin_counts[b]), and
 * scratch.dense_bins lists the nonempty bins in ascending order. Bin
 * overlap uses the same viewport-clamped bounds helper
 * (ScreenTriangle::boundsRect) as the rasterizer and countCoverage().
 */
void binTriangles(RenderScratch &scratch, const BinGrid &bins,
                  const Viewport &vp);

} // namespace gfx_detail

/**
 * Render one draw command into @p surface.
 *
 * @param touched_tiles optional per-tile flags (indexed by @p grid linear
 *        tile index) set for every tile that receives a written fragment —
 *        used to size CHOPIN's composition traffic.
 * @param grid tile grid used for @p touched_tiles indexing (may be null if
 *        touched_tiles is null).
 * @return functional statistics for the timing model.
 */
DrawStats renderDraw(Surface &surface, const Viewport &vp,
                     const DrawInput &in, const RenderFilter &filter = {},
                     std::vector<std::uint8_t> *touched_tiles = nullptr,
                     const TileGrid *grid = nullptr);

} // namespace chopin

#endif // CHOPIN_GFX_RENDERER_HH
