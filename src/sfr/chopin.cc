/**
 * @file
 * CHOPIN: sort-last split-frame rendering with parallel image composition
 * (Section IV of the paper, Fig. 6/7 workflow).
 *
 * Per composition group:
 *  - small or non-composable groups revert to primitive duplication
 *    (Fig. 7's threshold check);
 *  - opaque groups distribute whole draw commands across GPUs (via the
 *    draw-command scheduler), render full-screen sub-images with private
 *    depth, and compose the sub-images out-of-order at the region owners;
 *    functionally, each written fragment folds into the render target as
 *    it lands, so a sub-image keeps only depth and the written mask;
 *  - transparent groups split draws into contiguous equal-triangle chunks
 *    to preserve the blend order, then merge adjacent sub-images
 *    asynchronously using the associativity of the blend operator;
 *    functionally, the chunks render latest first into one scratch
 *    surface and fold into an accumulator.
 */

#include <algorithm>
#include <bit>
#include <cstring>

#include "comp/operators.hh"
#include "gfx/renderer.hh"
#include "sfr/comp_scheduler.hh"
#include "sfr/context.hh"
#include "sfr/grouping.hh"
#include "sfr/partition_render.hh"
#include "sfr/schemes.hh"
#include "util/log.hh"
#include "util/types.hh"

namespace chopin
{

namespace
{

/**
 * Written pixels among @p n written-mask bytes, scanned 8 at a time: each
 * byte is 0 or 1, so a word's popcount is its byte sum.
 */
std::uint64_t
countWritten(const std::uint8_t *mask, int n)
{
    std::uint64_t count = 0;
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, mask + i, sizeof(word));
        count += static_cast<std::uint64_t>(std::popcount(word));
    }
    for (; i < n; ++i)
        count += mask[i];
    return count;
}

/** Whether any of @p n written-mask bytes is set, 8 at a time. */
bool
anyWritten(const std::uint8_t *mask, int n)
{
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, mask + i, sizeof(word));
        if (word != 0)
            return true;
    }
    for (; i < n; ++i)
        if (mask[i] != 0)
            return true;
    return false;
}

/** The half-open pixel rectangle [x0, x1) x [y0, y1). */
struct TileRect
{
    int x0, y0, x1, y1;
};

/** Per-run state for the CHOPIN scheme. */
struct ChopinRun
{
    SimContext &ctx;
    const ChopinOptions &opts;
    DrawCommandScheduler sched;
    /**
     * Opaque groups: each GPU's private depth and written mask. Between
     * groups every sub-image is clean: depth at @ref sub_clear_z, no
     * written pixel.
     */
    std::vector<Surface> subs;
    float sub_clear_z = 1.0f;
    /** Per GPU, the tiles its draws in the current group wrote. */
    std::vector<std::vector<std::uint8_t>> sub_touched;
    /**
     * Transparent groups, allocated on first use: one GPU's chunk of
     * draws at a time renders into @ref chunk, which then folds into
     * @ref acc. Between chunks the scratch surface is clean: color at
     * @ref chunk_identity, no written pixel. An accumulator pixel is
     * defined only where @ref acc_any is set, and the final pass clears
     * @ref acc_any behind itself.
     */
    Surface chunk;
    Color chunk_identity;
    std::vector<Color> acc;
    std::vector<std::uint8_t> acc_any;
    Tick t = 0;

    ChopinRun(SimContext &sim_ctx, const ChopinOptions &run_opts)
        : ctx(sim_ctx), opts(run_opts),
          sched(ctx.pipes, opts.policy, ctx.cfg.sched_update_tris)
    {
        subs.reserve(ctx.cfg.num_gpus);
        sub_touched.resize(ctx.cfg.num_gpus);
        for (unsigned g = 0; g < ctx.cfg.num_gpus; ++g) {
            subs.push_back(Surface::subImage(ctx.vp.width, ctx.vp.height));
            sub_touched[g].assign(
                static_cast<std::size_t>(ctx.grid.tileCount()), 0);
        }
    }

    DrawInput
    makeInput(const DrawCommand &cmd) const
    {
        DrawInput in;
        in.triangles = cmd.triangles;
        in.mvp = ctx.trace.view_proj * cmd.model;
        in.state = cmd.state;
        in.draw_id = cmd.id;
        in.alpha_ref = cmd.alpha_ref;
        in.backface_cull = cmd.backface_cull;
        in.texture = ctx.textureFor(cmd);
        return in;
    }

    /** Linear tile @p tile's pixels, clipped to the viewport. */
    TileRect
    tileRect(int tile) const
    {
        int x0 = (tile % ctx.grid.tilesX()) * ctx.grid.tileSize();
        int y0 = (tile / ctx.grid.tilesX()) * ctx.grid.tileSize();
        return {x0, y0, std::min(x0 + ctx.grid.tileSize(), ctx.vp.width),
                std::min(y0 + ctx.grid.tileSize(), ctx.vp.height)};
    }

    /**
     * Call @p f(x, y, i) for every pixel of the tiles flagged in @p tiles
     * whose byte in the row-major viewport mask @p mask is set; i is the
     * pixel's row-major index.
     */
    template <typename F>
    void
    forEachMarked(const std::vector<std::uint8_t> &tiles,
                  const std::uint8_t *mask, F &&f) const
    {
        std::size_t w = static_cast<std::size_t>(ctx.vp.width);
        for (int tile = 0; tile < ctx.grid.tileCount(); ++tile) {
            if (!tiles[tile])
                continue;
            TileRect r = tileRect(tile);
            for (int y = r.y0; y < r.y1; ++y) {
                for (int x = r.x0; x < r.x1; ++x) {
                    std::size_t i = static_cast<std::size_t>(y) * w +
                                    static_cast<std::size_t>(x);
                    if (mask[i] != 0)
                        f(x, y, i);
                }
            }
        }
    }

    /** Mark every tile a GPU wrote in this group dirty in @p rt. */
    void
    markDirty(std::uint32_t rt)
    {
        std::vector<std::uint8_t> &dirty = ctx.rt_dirty[rt];
        for (const std::vector<std::uint8_t> &touched : sub_touched)
            for (std::size_t tile = 0; tile < dirty.size(); ++tile)
                dirty[tile] |= touched[tile];
    }

    /** Duplication fallback for one group (Fig. 7, left branch). */
    void
    runDuplicated(const CompositionGroup &group)
    {
        for (std::uint32_t i = group.first_draw; i <= group.last_draw; ++i) {
            const DrawCommand &cmd = ctx.trace.draws[i];
            Surface &target = ctx.rts[cmd.state.render_target];
            PartitionedDraw part = renderDrawPartitioned(
                target, ctx.vp, cmd, ctx.trace.view_proj, ctx.grid,
                GeometryCharging::Duplicated,
                &ctx.rt_dirty[cmd.state.render_target],
                ctx.textureFor(cmd));
            for (unsigned g = 0; g < ctx.cfg.num_gpus; ++g) {
                ctx.totals += part.per_gpu[g];
                ctx.pipes[g].submitDraw(
                    cmd.id, ctx.applyCullRetention(part.per_gpu[g]), t);
            }
            t += ctx.cfg.timing.driver_issue_cycles;
        }
    }

    /** The composition job skeleton, with zero pixel counts. */
    CompositionJob
    makeJob() const
    {
        unsigned n = ctx.cfg.num_gpus;
        CompositionJob job;
        job.num_gpus = n;
        job.screen_pixels = static_cast<std::uint64_t>(ctx.vp.width) *
                            static_cast<std::uint64_t>(ctx.vp.height);
        job.ready.resize(n);
        job.pair_pixels.assign(static_cast<std::size_t>(n) * n, 0);
        job.self_pixels.assign(n, 0);
        job.subimage_pixels.assign(n, 0);
        return job;
    }

    /** Per-GPU readiness, once the group's draws are submitted. */
    void
    setReady(CompositionJob &job, Tick group_start) const
    {
        for (unsigned g = 0; g < job.num_gpus; ++g)
            job.ready[g] =
                std::max(group_start, ctx.pipes[g].finishTime());
    }

    /**
     * Add GPU @p g's payload, read from @p sub's written mask, to the
     * job's pixel counts. Untouched 64x64 tiles are filtered out entirely
     * (Section VI-C: "we also filter out the screen tiles that are not
     * rendered by any draw command"); within a touched tile the payload
     * moves at DMA-burst granularity — any 8x8 sub-tile containing a
     * written pixel is transferred whole. This sits between idealized
     * per-pixel masking and naive whole-tile transfers, matching how ROPs
     * move compressed tile storage.
     */
    void
    countPayload(CompositionJob &job, unsigned g, const Surface &sub) const
    {
        constexpr int sub_edge = 8; // sub-tile (burst) edge in pixels
        unsigned n = job.num_gpus;
        for (int tile = 0; tile < ctx.grid.tileCount(); ++tile) {
            if (!sub_touched[g][tile])
                continue;
            GpuId owner = ctx.grid.ownerOfTile(tile % ctx.grid.tilesX(),
                                               tile / ctx.grid.tilesX());
            TileRect r = tileRect(tile);
            std::uint64_t px = 0;
            switch (ctx.cfg.comp_payload) {
              case CompPayload::FullTiles:
                px = static_cast<std::uint64_t>(ctx.grid.pixelsInTile(tile));
                break;
              case CompPayload::WrittenPixels:
                for (int y = r.y0; y < r.y1; ++y)
                    px += countWritten(sub.writtenRow(y) + r.x0, r.x1 - r.x0);
                break;
              case CompPayload::SubTiles:
                for (int sy = r.y0; sy < r.y1; sy += sub_edge) {
                    int ey = std::min(sy + sub_edge, r.y1);
                    for (int sx = r.x0; sx < r.x1; sx += sub_edge) {
                        int ex = std::min(sx + sub_edge, r.x1);
                        bool any = false;
                        for (int y = sy; y < ey && !any; ++y)
                            any = anyWritten(sub.writtenRow(y) + sx, ex - sx);
                        if (any)
                            px += static_cast<std::uint64_t>(ex - sx) *
                                  static_cast<std::uint64_t>(ey - sy);
                    }
                }
                break;
            }
            job.subimage_pixels[g] += px;
            if (owner == g)
                job.self_pixels[g] += px;
            else
                job.pair_pixels[static_cast<std::size_t>(g) * n + owner] +=
                    px;
        }
    }

    /** Distributed execution of an opaque group. */
    void
    runDistributedOpaque(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        DepthFunc eff_func =
            group.depth_test ? group.depth_func : DepthFunc::Always;
        float clear_z =
            (group.depth_test && !prefersSmaller(group.depth_func)) ? 0.0f
                                                                    : 1.0f;
        // A sub-image holds only what a draw reads before it writes: the
        // GPU's private depth and the written mask. The sub-images are
        // clean, so only a new clear depth needs a fill, and only if the
        // group's test reads depth at all.
        if (eff_func != DepthFunc::Always && clear_z != sub_clear_z) {
            for (Surface &sub : subs)
                sub.resetReadState(clear_z);
            sub_clear_z = clear_z;
        }
        for (unsigned g = 0; g < n; ++g)
            std::fill(sub_touched[g].begin(), sub_touched[g].end(), 0);

        // Functional composition, folded into the render target as each
        // fragment lands (DESIGN §2.5). A write passes its GPU's private
        // depth test, so one GPU's writes to a pixel never decrease under
        // opaqueWins' total order, and its final pixel is the largest of
        // them. A running maximum over every write thus equals the
        // out-of-order select over the GPUs' final sub-images;
        // opaqueReplaces settles the one tie, a draw overlapping itself.
        // No draw samples its own render target, so writing it during the
        // group changes no texture read.
        Surface &target = ctx.rts[group.render_target];
        bool write_depth = group.depth_test && group.depth_write;
        Tick group_start = t;
        for (std::uint32_t i = group.first_draw; i <= group.last_draw; ++i) {
            const DrawCommand &cmd = ctx.trace.draws[i];
            auto fold = [&](const Fragment &frag) {
                // The select reads only depth and writer ids.
                OpaquePixel in{Color(), frag.z, cmd.id};
                OpaquePixel cur{Color(), target.depthAt(frag.x, frag.y),
                                target.writerAt(frag.x, frag.y)};
                if (!opaqueReplaces(eff_func, in, cur))
                    return;
                target.color().at(frag.x, frag.y) =
                    blendPixel(BlendOp::Opaque, frag.color, Color());
                if (write_depth)
                    target.setDepth(frag.x, frag.y, in.depth);
                target.setWriter(frag.x, frag.y, in.writer);
                target.markWritten(frag.x, frag.y);
            };
            FragmentSink sink(fold);
            GpuId g = sched.schedule(cmd.triangleCount(), t);
            DrawStats stats =
                renderDraw(subs[g], ctx.vp, makeInput(cmd), RenderFilter{},
                           &sub_touched[g], &ctx.grid, &sink);
            ctx.totals += stats;
            ctx.pipes[g].submitDraw(cmd.id, ctx.applyCullRetention(stats),
                                    t);
            t += ctx.cfg.timing.driver_issue_cycles;
        }

        markDirty(group.render_target);

        // Count each payload, then clean the sub-image: a draw changes
        // only the depth and written mask of a pixel it writes, so
        // restoring those two at each written pixel costs a fraction of a
        // refill.
        CompositionJob job = makeJob();
        setReady(job, group_start);
        for (unsigned g = 0; g < n; ++g) {
            Surface &sub = subs[g];
            countPayload(job, g, sub);
            forEachMarked(sub_touched[g], sub.writtenRow(0),
                          [&](int x, int y, std::size_t) {
                              sub.setDepth(x, y, sub_clear_z);
                              sub.unmarkWritten(x, y);
                          });
        }
        Tick max_ready =
            *std::max_element(job.ready.begin(), job.ready.end());

        CompositionTiming timing =
            opts.comp_scheduler
                ? composeOpaqueScheduled(job, ctx.net, ctx.cfg.timing)
                : composeOpaqueDirectSend(job, ctx.net, ctx.cfg.timing);
        ctx.breakdown.composition +=
            timing.end > max_ready ? timing.end - max_ready : 0;
        if (ctx.tracer != nullptr && timing.end > max_ready)
            ctx.tracer->span(ctx.phase_track, "chopin", "compose opaque",
                             max_ready, timing.end,
                             {{"pair_pixels", job.pairPixels()}});
        t = std::max(t, timing.end);
    }

    /** Distributed execution of a transparent group. */
    void
    runDistributedTransparent(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        BlendOp op = group.blend_op;
        std::uint32_t count = group.last_draw - group.first_draw + 1;
        auto draw = [&](std::uint32_t k) -> const DrawCommand & {
            return ctx.trace.draws[group.first_draw + k];
        };

        // Contiguous equal-triangle chunks preserve the input order:
        // GPU g renders draws strictly earlier than GPU g+1 (Fig. 7).
        std::vector<GpuId> gpu_of(count);
        std::uint64_t target_share =
            std::max<std::uint64_t>(1, group.triangles / n);
        std::uint64_t acc_tris = 0;
        GpuId gpu = 0;
        for (std::uint32_t k = 0; k < count; ++k) {
            gpu_of[k] = gpu;
            acc_tris += draw(k).triangleCount();
            if (acc_tris >= target_share * (gpu + 1) && gpu + 1 < n)
                ++gpu;
        }

        // Blending reads the destination color, so the scratch surface
        // starts at the operator's identity.
        chopin_assert(!group.depth_test && !group.stencil_test,
                      "distributed transparent group ", group.id,
                      " tests depth or stencil");
        Color identity = transparentIdentity(op);
        if (chunk.width() == 0) {
            chunk = Surface(ctx.vp.width, ctx.vp.height, identity);
            chunk_identity = identity;
            std::size_t px = static_cast<std::size_t>(ctx.vp.width) *
                             static_cast<std::size_t>(ctx.vp.height);
            acc.resize(px);
            acc_any.assign(px, 0);
        } else if (chunk_identity != identity) {
            chunk.color().clear(identity);
            chunk_identity = identity;
        }

        // Render the chunks front to back (the latest draws first) into
        // one scratch surface, counting each chunk's payload and folding
        // it into the accumulator before the next chunk reuses the
        // surface. That is the order mergeTransparent composes partials.
        CompositionJob job = makeJob();
        std::vector<DrawStats> stats(count);
        std::uint32_t end = count;
        for (int g = static_cast<int>(n) - 1; g >= 0; --g) {
            std::uint32_t begin = end;
            while (begin > 0 && gpu_of[begin - 1] == static_cast<GpuId>(g))
                --begin;
            std::fill(sub_touched[g].begin(), sub_touched[g].end(), 0);
            if (begin == end)
                continue;
            for (std::uint32_t k = begin; k < end; ++k)
                stats[k] = renderDraw(chunk, ctx.vp, makeInput(draw(k)),
                                      RenderFilter{}, &sub_touched[g],
                                      &ctx.grid);
            countPayload(job, static_cast<unsigned>(g), chunk);
            // Fold, and restore each pixel read to the clean state: a
            // transparent draw changes only the color and written mask of
            // a pixel it writes (writer ids are never read here).
            forEachMarked(sub_touched[g], chunk.writtenRow(0),
                          [&](int x, int y, std::size_t i) {
                              acc[i] = mergeTransparent(
                                  op, acc_any[i] ? acc[i] : identity,
                                  chunk.color().at(x, y));
                              acc_any[i] = 1;
                              chunk.color().at(x, y) = identity;
                              chunk.unmarkWritten(x, y);
                          });
            end = begin;
        }

        // The timing model sees the draws in input order, as before the
        // reordered rendering.
        Tick group_start = t;
        for (std::uint32_t k = 0; k < count; ++k) {
            const DrawCommand &cmd = draw(k);
            sched.accountExternal(gpu_of[k], cmd.triangleCount());
            ctx.totals += stats[k];
            ctx.pipes[gpu_of[k]].submitDraw(
                cmd.id, ctx.applyCullRetention(stats[k]), t);
            t += ctx.cfg.timing.driver_issue_cycles;
        }
        setReady(job, group_start);
        Tick max_ready =
            *std::max_element(job.ready.begin(), job.ready.end());

        // Asynchronous adjacent (tree) composition is part of base CHOPIN
        // (Section III-B): associativity lets adjacent sub-images merge as
        // soon as both are available, with or without the composition
        // scheduler. The left-fold chain remains in the library as the
        // serial-sink reference baseline.
        CompositionTiming timing =
            composeTransparentTree(job, ctx.net, ctx.cfg.timing);
        ctx.breakdown.composition +=
            timing.end > max_ready ? timing.end - max_ready : 0;
        if (ctx.tracer != nullptr && timing.end > max_ready)
            ctx.tracer->span(ctx.phase_track, "chopin",
                             "compose transparent", max_ready, timing.end,
                             {{"pair_pixels", job.pairPixels()}});
        t = std::max(t, timing.end);

        // Apply the folded partials over the background, clearing the
        // accumulator flags behind.
        Surface &target = ctx.rts[group.render_target];
        markDirty(group.render_target);
        for (const std::vector<std::uint8_t> &touched : sub_touched)
            forEachMarked(touched, acc_any.data(),
                          [&](int x, int y, std::size_t i) {
                              target.color().at(x, y) = finalizeTransparent(
                                  op, acc[i], target.color().at(x, y));
                              target.markWritten(x, y);
                              acc_any[i] = 0;
                          });
    }
};

} // namespace

FrameResult
runChopin(const SystemConfig &cfg, const FrameTrace &trace,
          const ChopinOptions &opts, Tracer *tracer)
{
    SimContext ctx(cfg, trace, opts.ideal ? LinkParams::ideal() : cfg.link,
                   tracer);
    ChopinRun run(ctx, opts);

    std::vector<CompositionGroup> groups = formGroups(trace);
    std::uint64_t groups_distributed = 0;
    std::uint64_t tris_distributed = 0;

    std::uint32_t bound_rt = 0;
    std::uint32_t bound_db = 0;
    for (const CompositionGroup &group : groups) {
        if (group.render_target != bound_rt ||
            group.depth_buffer != bound_db) {
            Tick sync_start = std::max(run.t, ctx.maxPipeFinish());
            run.t = ctx.syncBroadcast(bound_rt, sync_start);
            bound_rt = group.render_target;
            bound_db = group.depth_buffer;
        }

        if (!groupDistributable(group, cfg.group_threshold)) {
            run.runDuplicated(group);
            continue;
        }
        groups_distributed += 1;
        tris_distributed += group.triangles;
        if (group.transparent())
            run.runDistributedTransparent(group);
        else
            run.runDistributedOpaque(group);
    }

    Tick end = std::max(run.t, ctx.maxPipeFinish());
    Scheme scheme = Scheme::Chopin;
    if (opts.ideal)
        scheme = Scheme::ChopinIdeal;
    else if (opts.policy == DrawPolicy::RoundRobin)
        scheme = Scheme::ChopinRoundRobin;
    else if (opts.comp_scheduler)
        scheme = Scheme::ChopinCompSched;

    FrameResult r = ctx.finish(scheme, end);
    r.groups_total = groups.size();
    r.groups_distributed = groups_distributed;
    r.tris_distributed = tris_distributed;
    r.sched_status_bytes = run.sched.statusTraffic();
    return r;
}

FrameResult
runScheme(Scheme scheme, const SystemConfig &cfg, const FrameTrace &trace,
          Tracer *tracer)
{
    switch (scheme) {
      case Scheme::SingleGpu:
        return runSingleGpu(cfg, trace, tracer);
      case Scheme::Duplication:
        return runDuplication(cfg, trace, tracer);
      case Scheme::Gpupd:
        return runGpupd(cfg, trace, false, tracer);
      case Scheme::GpupdIdeal:
        return runGpupd(cfg, trace, true, tracer);
      case Scheme::ChopinRoundRobin:
        return runChopin(cfg, trace,
                         {DrawPolicy::RoundRobin, false, false}, tracer);
      case Scheme::Chopin:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, false, false},
                         tracer);
      case Scheme::ChopinCompSched:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, true, false},
                         tracer);
      case Scheme::ChopinIdeal:
        return runChopin(cfg, trace,
                         {DrawPolicy::FewestRemaining, true, true},
                         tracer);
    }
    panic("unknown scheme");
}

} // namespace chopin
