#include "sfr/partition_render.hh"

#include "util/log.hh"

namespace chopin
{

PartitionedDraw
renderDrawPartitioned(Surface &target, const Viewport &vp,
                      const DrawCommand &cmd, const Mat4 &view_proj,
                      const TileGrid &grid, GeometryCharging charging,
                      std::vector<std::uint8_t> *touched_tiles,
                      const Image *texture)
{
    using namespace gfx_detail;

    unsigned n = grid.numGpus();
    PartitionedDraw out;
    out.per_gpu.resize(n);
    out.owned_tris.assign(n, 0);

    Mat4 mvp = view_proj * cmd.model;

    // Cull in the attribution pass below (not in geometry processing) so
    // that the bounding-box owner set of back-facing primitives is still
    // known: GPUpd distributes them, and their vertex work lands on the
    // owners.
    RenderScratch &scratch = threadRenderScratch();
    scratch.beginDraw();
    DrawStats geom;
    runGeometry(cmd.triangles, mvp, vp, /*backface_cull=*/false, scratch,
                geom);

    if (charging == GeometryCharging::Duplicated) {
        // Every GPU transforms and clips every primitive.
        for (unsigned g = 0; g < n; ++g) {
            out.per_gpu[g].verts_shaded += geom.verts_shaded;
            out.per_gpu[g].tris_in += geom.tris_in;
            out.per_gpu[g].tris_clipped += geom.tris_clipped;
            out.per_gpu[g].tris_culled += geom.tris_culled;
        }
    }
    // Clipped-away primitives never reach any GPU under sort-first
    // distribution (the projection phase drops them).

    // Per-triangle ownership attribution, then rasterization of the
    // surviving primitive; each fragment's work lands on its pixel's owner.
    PixelRect full{0, 0, vp.width - 1, vp.height - 1};
    for (const ScreenTriangle &st : scratch.screen_tris) {
        std::uint64_t mask = grid.overlappedGpus(st);
        bool front = signedScreenArea2(st) > 0.0f;
        bool culled = cmd.backface_cull && !front;

        for (unsigned g = 0; g < n; ++g) {
            bool owner = (mask >> g) & 1ULL;
            DrawStats &s = out.per_gpu[g];
            if (owner)
                out.owned_tris[g] += 1;

            if (charging == GeometryCharging::OwnersOnly && owner) {
                s.verts_shaded += 3;
                s.tris_in += 1;
            }
            if (culled) {
                bool charged = charging == GeometryCharging::Duplicated ||
                               owner;
                if (charged)
                    s.tris_culled += 1;
                continue;
            }
            if (owner) {
                s.tris_rasterized += 1;
            } else if (charging == GeometryCharging::Duplicated) {
                // Non-owners coarse-reject the primitive in the raster
                // engine; under OwnersOnly they never see it.
                s.tris_coarse_rejected += 1;
            }
        }
        if (culled)
            continue;

        rasterizeTriangleInRect(st, vp, full, [&](const Fragment &frag) {
            GpuId g = grid.ownerOfPixel(frag.x, frag.y);
            DrawStats &s = out.per_gpu[g];
            Fragment shaded = frag;
            if (texture != nullptr) {
                shaded.color = shaded.color * texture->at(frag.x, frag.y);
                s.frags_textured += 1;
            }
            std::uint64_t written_before = s.frags_written;
            target.applyFragment(shaded, cmd.state, cmd.id, cmd.alpha_ref, s);
            if (s.frags_written != written_before && touched_tiles != nullptr)
                (*touched_tiles)[static_cast<std::size_t>(
                    grid.tileIndexOfPixel(frag.x, frag.y))] = 1;
        });
    }
    return out;
}

} // namespace chopin
