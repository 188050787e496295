#include <algorithm>
#include <string>

#include "gfx/renderer.hh"
#include "perfbench.hh"
#include "sim/event_queue.hh"

namespace perfbench
{

using namespace chopin;

const char *
schemeSpan(Scheme s)
{
    switch (s) {
      case Scheme::SingleGpu:        return "sfr.single_gpu";
      case Scheme::Duplication:      return "sfr.duplication";
      case Scheme::Gpupd:            return "sfr.gpupd";
      case Scheme::GpupdIdeal:       return "sfr.gpupd_ideal";
      case Scheme::ChopinRoundRobin: return "sfr.chopin_rr";
      case Scheme::Chopin:           return "sfr.chopin";
      case Scheme::ChopinCompSched:  return "sfr.chopin_compsched";
      case Scheme::ChopinIdeal:      return "sfr.chopin_ideal";
    }
    return "sfr.unknown";
}

const char *
streamSpan(SequenceScheme s)
{
    switch (s) {
      case SequenceScheme::PureSfr:      return "sfr.pure_sfr";
      case SequenceScheme::PureAfr:      return "sfr.pure_afr";
      case SequenceScheme::HybridAfrSfr: return "sfr.hybrid";
    }
    return "sfr.unknown";
}

void
ModelTotals::addFrame(const FrameAccounting &r)
{
    for (const MetricSample &m : collectMetrics(r))
        digest.str(m.name).u64(m.bits);
    cycles += static_cast<double>(r.cycles);
    comp_cycles += static_cast<double>(r.breakdown.composition);
    traffic_total += static_cast<double>(r.traffic.total);
    traffic_comp +=
        static_cast<double>(r.traffic.ofClass(TrafficClass::Composition));
    sched_bytes += static_cast<double>(r.sched_status_bytes);
    groups_total += static_cast<double>(r.groups_total);
    groups_distributed += static_cast<double>(r.groups_distributed);
}

void
ModelTotals::addSequence(const SequenceResult &r)
{
    for (const MetricSample &m :
         collectMetrics(static_cast<const SequenceAccounting &>(r)))
        digest.str(m.name).u64(m.bits);
    if (r.scheme == SequenceScheme::HybridAfrSfr)
        micro_stutter += r.micro_stutter;
    for (const FrameResult &f : r.frames)
        addFrame(f);
}

void
ModelTotals::report(Report &rep) const
{
    rep.set("model.cycles", cycles, "cycles");
    rep.set("model.breakdown.composition", comp_cycles, "cycles");
    rep.set("model.traffic.total", traffic_total, "bytes");
    rep.set("model.traffic.composition", traffic_comp, "bytes");
    rep.set("model.sched_status_bytes", sched_bytes, "bytes");
    rep.set("model.groups_distributed_ratio",
            groups_total > 0 ? groups_distributed / groups_total : 0.0,
            "ratio");
    rep.set("model.seq.micro_stutter", micro_stutter, "cycles");
}

namespace
{

constexpr unsigned compGpus = 8;
/** One composition message: an 8x8 sub-tile at 8 bytes per pixel. */
constexpr Bytes subTileBytes = 8 * 8 * bytesPerOpaquePixel;

/**
 * Split a final surface into compGpus depth images: each written pixel
 * goes to GPU (writer % compGpus), as if its draw had rendered there, and
 * never-written pixels to GPU 0. Every other image keeps the clear value,
 * so depth composition reassembles the surface.
 */
std::vector<DepthImage>
splitByWriter(const Surface &s, const FrameTrace &t)
{
    std::vector<DepthImage> subs(
        compGpus,
        DepthImage(s.width(), s.height(), t.clear_color, t.clear_depth));
    for (int y = 0; y < s.height(); ++y)
        for (int x = 0; x < s.width(); ++x) {
            DrawId w = s.writerAt(x, y);
            unsigned g = w == noWriter ? 0 : w % compGpus;
            subs[g].set(x, y, {s.color().at(x, y), s.depthAt(x, y), w});
        }
    return subs;
}

} // namespace

void
replayLayers(const FrameTrace &t, int frame, const SystemConfig &cfg,
             const FrameAccounting &ref, SpanLog &log, LayerTotals &acc,
             Report &rep)
{
    const std::string where = t.name + " frame " + std::to_string(frame);
    Scope frame_span(&log, "layers.frame", frame);
    {
        Scope s(&log, "sfr.form_groups", frame);
        std::vector<CompositionGroup> groups = formGroups(t);
        if (groups.empty() && !t.draws.empty())
            rep.fail(where + ": formGroups returned no groups");
    }

    // --- gfx: the single-GPU reference render, one call per layer -------
    const Viewport vp = t.viewport;
    const TileGrid grid(vp.width, vp.height, 1, cfg.tile_size,
                        cfg.tile_assignment);
    std::vector<Surface> rts;
    {
        Scope s(&log, "gfx.surface_alloc", frame);
        rts.reserve(t.num_render_targets);
        for (std::uint32_t r = 0; r < t.num_render_targets; ++r)
            rts.emplace_back(vp.width, vp.height);
    }
    {
        Scope s(&log, "gfx.surface_clear", frame);
        for (Surface &rt : rts)
            rt.clear(t.clear_color, t.clear_depth);
    }
    std::vector<std::vector<std::uint8_t>> dirty(
        rts.size(),
        std::vector<std::uint8_t>(static_cast<std::size_t>(grid.tileCount())));
    RenderScratch scratch;
    const gfx_detail::BinGrid bins = gfx_detail::makeBinGrid(vp, &grid);
    std::vector<DrawStats> per_draw;
    per_draw.reserve(t.draws.size());
    for (const DrawCommand &cmd : t.draws) {
        const Mat4 mvp = t.view_proj * cmd.model;
        // Geometry and binning again on the same draw, outside renderDraw
        // (which bins only on its parallel raster path).
        {
            Scope s(&log, "gfx.geometry", frame);
            DrawStats geo;
            scratch.beginDraw();
            gfx_detail::runGeometry(cmd.triangles, mvp, vp, cmd.backface_cull,
                                    scratch, geo);
        }
        {
            Scope s(&log, "gfx.bin", frame);
            for (std::size_t i = 0; i < scratch.screen_tris.size(); ++i)
                scratch.kept.push_back(static_cast<std::uint32_t>(i));
            gfx_detail::binTriangles(scratch, bins, vp);
        }
        DrawInput in;
        in.triangles = cmd.triangles;
        in.mvp = mvp;
        in.state = cmd.state;
        in.draw_id = cmd.id;
        in.alpha_ref = cmd.alpha_ref;
        in.backface_cull = cmd.backface_cull;
        in.texture = cmd.texture_rt < 0
                         ? nullptr
                         : &rts[static_cast<std::size_t>(cmd.texture_rt)]
                                .color();
        const std::uint32_t rt = cmd.state.render_target;
        Scope s(&log, "gfx.render_draw", frame);
        per_draw.push_back(
            renderDraw(rts[rt], vp, in, RenderFilter{}, &dirty[rt], &grid));
    }
    std::uint64_t frame_hash = 0;
    std::uint64_t content_hash = 0;
    {
        Scope s(&log, "gfx.frame_hash", frame);
        frame_hash = frameHash(rts[0].color());
    }
    {
        Scope s(&log, "gfx.content_hash", frame);
        content_hash = rts[0].contentHash();
    }
    rep.attempted += 1;
    if (frame_hash != ref.frame_hash || content_hash != ref.content_hash)
        rep.fail(where + ": gfx replay hashes differ from SingleGpu");
    acc.frames += 1;
    for (const DrawStats &d : per_draw) {
        acc.tris_in += d.tris_in;
        acc.tris_rasterized += d.tris_rasterized;
        acc.frags_generated += d.frags_generated;
        acc.frags_written += d.frags_written;
    }

    // --- gpu: the draws' DrawStats through one pipeline -----------------
    {
        GpuPipeline pipe(cfg.timing);
        {
            Scope s(&log, "gpu.submit", frame);
            Tick issue = 0;
            for (std::size_t i = 0; i < per_draw.size(); ++i) {
                pipe.submitDraw(t.draws[i].id, per_draw[i], issue);
                issue += cfg.timing.driver_issue_cycles;
            }
        }
        acc.gpu_draws += per_draw.size();
        if (pipe.finishTime() != ref.cycles)
            rep.fail(where + ": pipeline replay cycles differ from SingleGpu");
    }

    // --- comp: 8 per-GPU depth images composed two ways -----------------
    CompositionTraffic traffic;
    {
        std::vector<DepthImage> subs;
        {
            Scope s(&log, "comp.split", frame);
            subs = splitByWriter(rts[0], t);
        }
        DepthImage direct;
        DepthImage swapped;
        {
            Scope s(&log, "comp.direct_send", frame);
            direct = composeDirectSend(subs, DepthFunc::LessEqual, &traffic);
        }
        {
            Scope s(&log, "comp.binary_swap", frame);
            swapped = composeBinarySwap(subs, DepthFunc::LessEqual);
        }
        rep.attempted += 1;
        if (frameHash(direct.color) != frame_hash ||
            frameHash(swapped.color) != frame_hash)
            rep.fail(where + ": composed image differs from the replay");
        acc.comp_bytes += traffic.total_bytes;
        acc.comp_pixels += static_cast<std::uint64_t>(compGpus) *
                           static_cast<std::uint64_t>(vp.width) *
                           static_cast<std::uint64_t>(vp.height);
    }

    // --- net + sim: composition bytes as sub-tile messages --------------
    Interconnect net(compGpus, cfg.link);
    const std::uint64_t messages =
        (traffic.total_bytes + subTileBytes - 1) / subTileBytes;
    std::vector<Tick> delivered;
    delivered.reserve(messages);
    {
        Scope s(&log, "net.transfer", frame);
        for (std::uint64_t m = 0; m < messages; ++m) {
            // Round-robin over the 56 ordered (src, dst) pairs.
            auto pair = static_cast<GpuId>(m % (compGpus * (compGpus - 1)));
            GpuId src = pair / (compGpus - 1);
            GpuId dst = pair % (compGpus - 1);
            if (dst >= src)
                dst += 1;
            delivered.push_back(net.transfer(src, dst, subTileBytes, 0,
                                             TrafficClass::Composition));
        }
    }
    net.checkFlowConservation();
    acc.net_messages += messages;

    EventQueue queue;
    std::uint64_t fired = 0;
    Tick end = 0;
    {
        Scope s(&log, "sim.events", frame);
        for (Tick when : delivered)
            queue.schedule(when, [&fired] { fired += 1; });
        end = queue.run();
    }
    acc.sim_events += delivered.size();
    Tick last = 0;
    for (Tick when : delivered)
        last = std::max(last, when);
    if (fired != delivered.size() || end != last)
        rep.fail(where + ": event replay lost or reordered deliveries");
}

void
reportLayers(const LayerTotals &acc, const SpanLog &log, Report &rep)
{
    std::map<std::string, double> self = log.selfSeconds();
    auto perFrameMs = [&](const char *span) {
        return acc.frames ? self[span] * 1e3 / static_cast<double>(acc.frames)
                          : 0.0;
    };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    auto nsPer = [&](const char *span, std::uint64_t n) {
        return n ? self[span] * 1e9 / static_cast<double>(n) : 0.0;
    };

    rep.set("sfr.form_groups_ms", perFrameMs("sfr.form_groups"), "ms");
    rep.set("gfx.surface_alloc_ms", perFrameMs("gfx.surface_alloc"), "ms");
    rep.set("gfx.surface_clear_ms", perFrameMs("gfx.surface_clear"), "ms");
    rep.set("gfx.geometry_ms", perFrameMs("gfx.geometry"), "ms");
    rep.set("gfx.bin_ms", perFrameMs("gfx.bin"), "ms");
    rep.set("gfx.render_draw_ms", perFrameMs("gfx.render_draw"), "ms");
    rep.set("gfx.frame_hash_ms", perFrameMs("gfx.frame_hash"), "ms");
    rep.set("gfx.content_hash_ms", perFrameMs("gfx.content_hash"), "ms");
    rep.set("gfx.frags_generated", static_cast<double>(acc.frags_generated),
            "count");
    rep.set("gfx.frags_written", static_cast<double>(acc.frags_written),
            "count");
    rep.set("gfx.frag_write_ratio",
            ratio(acc.frags_written, acc.frags_generated), "ratio");
    rep.set("gfx.tri_raster_ratio", ratio(acc.tris_rasterized, acc.tris_in),
            "ratio");
    rep.set("gfx.ns_per_frag", nsPer("gfx.render_draw", acc.frags_generated),
            "ns");

    rep.set("comp.direct_send_ms", perFrameMs("comp.direct_send"), "ms");
    rep.set("comp.binary_swap_ms", perFrameMs("comp.binary_swap"), "ms");
    rep.set("comp.bytes", static_cast<double>(acc.comp_bytes), "bytes");
    rep.set("comp.ns_per_pixel",
            acc.comp_pixels
                ? (self["comp.direct_send"] + self["comp.binary_swap"]) *
                      1e9 / (2.0 * static_cast<double>(acc.comp_pixels))
                : 0.0,
            "ns");

    rep.set("gpu.submit_ns_per_draw", nsPer("gpu.submit", acc.gpu_draws),
            "ns");
    rep.set("gpu.draws", static_cast<double>(acc.gpu_draws), "count");
    rep.set("net.transfer_ns_per_msg", nsPer("net.transfer", acc.net_messages),
            "ns");
    rep.set("net.messages", static_cast<double>(acc.net_messages), "count");
    rep.set("sim.ns_per_event", nsPer("sim.events", acc.sim_events), "ns");
    rep.set("sim.events", static_cast<double>(acc.sim_events), "count");
}

} // namespace perfbench
