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
 *  - transparent groups split draws into contiguous equal-triangle chunks
 *    to preserve the blend order, then merge adjacent sub-images
 *    asynchronously using the associativity of the blend operator.
 */

#include <algorithm>

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

/** Per-run state for the CHOPIN scheme. */
struct ChopinRun
{
    SimContext &ctx;
    const ChopinOptions &opts;
    DrawCommandScheduler sched;
    std::vector<Surface> subs;
    std::vector<std::vector<std::uint8_t>> sub_touched;
    Tick t = 0;

    ChopinRun(SimContext &sim_ctx, const ChopinOptions &run_opts)
        : ctx(sim_ctx), opts(run_opts),
          sched(ctx.pipes, opts.policy, ctx.cfg.sched_update_tris)
    {
        subs.reserve(ctx.cfg.num_gpus);
        sub_touched.resize(ctx.cfg.num_gpus);
        for (unsigned g = 0; g < ctx.cfg.num_gpus; ++g) {
            subs.emplace_back(ctx.vp.width, ctx.vp.height);
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

    /** Build the composition job skeleton from per-GPU readiness. */
    CompositionJob
    makeJob(Tick group_start) const
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
        for (unsigned g = 0; g < n; ++g)
            job.ready[g] =
                std::max(group_start, ctx.pipes[g].finishTime());
        return job;
    }

    /**
     * Fill the job's pixel counts. Untouched 64x64 tiles are filtered out
     * entirely (Section VI-C: "we also filter out the screen tiles that
     * are not rendered by any draw command"); within a touched tile the
     * payload moves at DMA-burst granularity — any 8x8 sub-tile containing
     * a written pixel is transferred whole. This sits between idealized
     * per-pixel masking and naive whole-tile transfers, matching how ROPs
     * move compressed tile storage.
     */
    void
    fillJobPixels(CompositionJob &job)
    {
        constexpr int sub = 8; // sub-tile (burst) edge in pixels
        unsigned n = ctx.cfg.num_gpus;
        CompPayload payload = ctx.cfg.comp_payload;
        for (unsigned g = 0; g < n; ++g) {
            for (int tile = 0; tile < ctx.grid.tileCount(); ++tile) {
                if (!sub_touched[g][tile])
                    continue;
                GpuId owner = ctx.grid.ownerOfTile(
                    tile % ctx.grid.tilesX(), tile / ctx.grid.tilesX());
                int tx0 = (tile % ctx.grid.tilesX()) * ctx.grid.tileSize();
                int ty0 = (tile / ctx.grid.tilesX()) * ctx.grid.tileSize();
                int tx1 = std::min(tx0 + ctx.grid.tileSize(), ctx.vp.width);
                int ty1 = std::min(ty0 + ctx.grid.tileSize(), ctx.vp.height);
                std::uint64_t px = 0;
                switch (payload) {
                  case CompPayload::FullTiles:
                    px = static_cast<std::uint64_t>(
                        ctx.grid.pixelsInTile(tile));
                    break;
                  case CompPayload::WrittenPixels:
                    for (int y = ty0; y < ty1; ++y)
                        for (int x = tx0; x < tx1; ++x)
                            px += subs[g].writtenAt(x, y) ? 1 : 0;
                    break;
                  case CompPayload::SubTiles:
                    for (int sy = ty0; sy < ty1; sy += sub) {
                        for (int sx = tx0; sx < tx1; sx += sub) {
                            int ex = std::min(sx + sub, tx1);
                            int ey = std::min(sy + sub, ty1);
                            bool any = false;
                            for (int y = sy; y < ey && !any; ++y)
                                for (int x = sx; x < ex && !any; ++x)
                                    any = subs[g].writtenAt(x, y);
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
                    job.pair_pixels[static_cast<std::size_t>(g) * n +
                                    owner] += px;
            }
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
        for (unsigned g = 0; g < n; ++g) {
            subs[g].clear(Color(), clear_z);
            std::fill(sub_touched[g].begin(), sub_touched[g].end(), 0);
        }

        Tick group_start = t;
        for (std::uint32_t i = group.first_draw; i <= group.last_draw; ++i) {
            const DrawCommand &cmd = ctx.trace.draws[i];
            GpuId g = sched.schedule(cmd.triangleCount(), t);
            DrawStats stats =
                renderDraw(subs[g], ctx.vp, makeInput(cmd), RenderFilter{},
                           &sub_touched[g], &ctx.grid);
            ctx.totals += stats;
            ctx.pipes[g].submitDraw(cmd.id, ctx.applyCullRetention(stats),
                                    t);
            t += ctx.cfg.timing.driver_issue_cycles;
        }

        CompositionJob job = makeJob(group_start);
        fillJobPixels(job);
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

        // Functional composition: out-of-order per-pixel selection. The
        // order of sub-images is irrelevant (opaqueWins is a total order).
        Surface &target = ctx.rts[group.render_target];
        std::vector<std::uint8_t> &dirty = ctx.rt_dirty[group.render_target];
        for (int tile = 0; tile < ctx.grid.tileCount(); ++tile) {
            for (unsigned g = 0; g < n; ++g) {
                if (!sub_touched[g][tile])
                    continue;
                dirty[tile] = 1;
                int tx0 = (tile % ctx.grid.tilesX()) * ctx.grid.tileSize();
                int ty0 = (tile / ctx.grid.tilesX()) * ctx.grid.tileSize();
                int tx1 = std::min(tx0 + ctx.grid.tileSize(), ctx.vp.width);
                int ty1 = std::min(ty0 + ctx.grid.tileSize(), ctx.vp.height);
                for (int y = ty0; y < ty1; ++y) {
                    for (int x = tx0; x < tx1; ++x) {
                        if (!subs[g].writtenAt(x, y))
                            continue;
                        OpaquePixel in{subs[g].color().at(x, y),
                                       subs[g].depthAt(x, y),
                                       subs[g].writerAt(x, y)};
                        OpaquePixel cur{target.color().at(x, y),
                                        target.depthAt(x, y),
                                        target.writerAt(x, y)};
                        if (!opaqueWins(eff_func, in, cur))
                            continue;
                        target.color().at(x, y) = in.color;
                        if (group.depth_test && group.depth_write)
                            target.setDepth(x, y, in.depth);
                        target.setWriter(x, y, in.writer);
                        target.markWritten(x, y);
                    }
                }
            }
        }
    }

    /** Distributed execution of a transparent group. */
    void
    runDistributedTransparent(const CompositionGroup &group)
    {
        unsigned n = ctx.cfg.num_gpus;
        BlendOp op = group.blend_op;
        for (unsigned g = 0; g < n; ++g) {
            subs[g].clear(transparentIdentity(op), 1.0f);
            std::fill(sub_touched[g].begin(), sub_touched[g].end(), 0);
        }

        // Contiguous equal-triangle chunks preserve the input order:
        // GPU g renders draws strictly earlier than GPU g+1 (Fig. 7).
        std::uint64_t target_share =
            std::max<std::uint64_t>(1, group.triangles / n);
        std::uint64_t acc = 0;
        GpuId gpu = 0;
        Tick group_start = t;
        for (std::uint32_t i = group.first_draw; i <= group.last_draw; ++i) {
            const DrawCommand &cmd = ctx.trace.draws[i];
            DrawStats stats =
                renderDraw(subs[gpu], ctx.vp, makeInput(cmd), RenderFilter{},
                           &sub_touched[gpu], &ctx.grid);
            sched.accountExternal(gpu, cmd.triangleCount());
            ctx.totals += stats;
            ctx.pipes[gpu].submitDraw(cmd.id, ctx.applyCullRetention(stats),
                                    t);
            t += ctx.cfg.timing.driver_issue_cycles;
            acc += cmd.triangleCount();
            if (acc >= target_share * (gpu + 1) && gpu + 1 < n)
                ++gpu;
        }

        CompositionJob job = makeJob(group_start);
        fillJobPixels(job);
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

        // Functional merge: fold sub-images front (highest GPU id = latest
        // draws) to back, then apply over the background.
        Surface &target = ctx.rts[group.render_target];
        std::vector<std::uint8_t> &dirty = ctx.rt_dirty[group.render_target];
        for (int tile = 0; tile < ctx.grid.tileCount(); ++tile) {
            bool touched = false;
            for (unsigned g = 0; g < n && !touched; ++g)
                touched = sub_touched[g][tile] != 0;
            if (!touched)
                continue;
            dirty[tile] = 1;
            int tx0 = (tile % ctx.grid.tilesX()) * ctx.grid.tileSize();
            int ty0 = (tile / ctx.grid.tilesX()) * ctx.grid.tileSize();
            int tx1 = std::min(tx0 + ctx.grid.tileSize(), ctx.vp.width);
            int ty1 = std::min(ty0 + ctx.grid.tileSize(), ctx.vp.height);
            for (int y = ty0; y < ty1; ++y) {
                for (int x = tx0; x < tx1; ++x) {
                    bool any = false;
                    Color merged = transparentIdentity(op);
                    for (int g = static_cast<int>(n) - 1; g >= 0; --g) {
                        if (!subs[g].writtenAt(x, y))
                            continue;
                        any = true;
                        merged = mergeTransparent(op, merged,
                                                  subs[g].color().at(x, y));
                    }
                    if (!any)
                        continue;
                    target.color().at(x, y) = finalizeTransparent(
                        op, merged, target.color().at(x, y));
                    target.markWritten(x, y);
                }
            }
        }
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
