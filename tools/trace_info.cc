/**
 * @file
 * trace_info: inspect a saved trace — global statistics, per-state-change
 * breakdown, and the composition groups CHOPIN would form, with each
 * group's distribution decision at a given threshold. Accepts both the
 * single-frame and the sequence format (single-frame files load as
 * one-frame sequences through the upgrader); for an animated sequence it
 * also prints the stream summary — camera path, coherence knobs and
 * per-frame transform-override counts — before the base-frame breakdown.
 *
 *   trace_info frame.trace [--threshold=4096]
 */

#include <iostream>

#include "core/chopin.hh"
#include "util/check.hh"

int
main(int argc, char **argv)
{
    using namespace chopin;

    // Malformed arguments and trace files produce a "trace_info: error:
    // ..." line and exit code 2.
    setCliCheckTool("trace_info");

    CommandLine cli("inspect a CHOPIN trace file");
    cli.addFlag("threshold", "4096",
                "composition-group primitive threshold");
    cli.parse(argc, argv);
    if (cli.positional().size() != 1)
        fatal("usage: trace_info <file.trace> [--threshold=N]");

    SequenceTrace seq;
    CHOPIN_CHECK(loadSequence(seq, cli.positional()[0]), "cannot load '",
                 cli.positional()[0], "'");
    const FrameTrace &trace = seq.base;

    if (seq.frameCount() > 1) {
        std::size_t overrides = 0;
        for (const FrameKey &key : seq.frames)
            overrides += key.transforms.size();
        std::cout << "sequence: " << seq.frameCount() << " frames, "
                  << toString(seq.path) << " camera (step "
                  << formatDouble(seq.knobs.camera_step, 3) << ", hold "
                  << seq.knobs.camera_hold << "), object motion "
                  << formatDouble(seq.knobs.object_motion, 3)
                  << ", animated fraction "
                  << formatDouble(seq.knobs.animated_frac, 2) << ", "
                  << formatDouble(static_cast<double>(overrides) /
                                      static_cast<double>(seq.frameCount()),
                                  1)
                  << " transform overrides/frame\n"
                  << "base frame (frame 0 geometry) follows:\n\n";
    }

    std::cout << "trace '" << trace.name << "' (" << trace.full_name
              << ")\n"
              << "  viewport:        " << trace.viewport.width << "x"
              << trace.viewport.height << "\n"
              << "  draws:           " << trace.draws.size() << "\n"
              << "  triangles:       " << trace.totalTriangles() << "\n"
              << "  transparent:     " << trace.transparentDraws()
              << " draws\n"
              << "  render targets:  " << trace.num_render_targets << "\n\n";

    std::uint64_t threshold =
        static_cast<std::uint64_t>(cli.getInt("threshold"));
    auto groups = formGroups(trace);
    TextTable table({"group", "draws", "triangles", "state", "opened by",
                     "CHOPIN mode"});
    auto event_name = [](BoundaryEvent e) {
        switch (e) {
          case BoundaryEvent::FrameStart:   return "frame start";
          case BoundaryEvent::RenderTarget: return "rt/depth switch";
          case BoundaryEvent::DepthWrite:   return "depth-write toggle";
          case BoundaryEvent::DepthFunc:    return "depth-func change";
          case BoundaryEvent::BlendOp:      return "blend-op change";
        }
        return "?";
    };
    std::uint64_t distributed_tris = 0;
    for (const CompositionGroup &g : groups) {
        bool dist = groupDistributable(g, threshold);
        if (dist)
            distributed_tris += g.triangles;
        std::string state = "rt" + std::to_string(g.render_target) + " " +
                            toString(g.blend_op) + " " +
                            (g.depth_test ? toString(g.depth_func)
                                          : std::string("no-ztest")) +
                            (g.depth_write ? "" : " zread-only");
        table.addRow({std::to_string(g.id),
                      std::to_string(g.drawCount()),
                      std::to_string(g.triangles), state,
                      event_name(g.opened_by),
                      dist ? "distributed" : "duplicated"});
    }
    table.print(std::cout);
    std::cout << "\nwith threshold " << threshold << ": "
              << formatDouble(100.0 * static_cast<double>(distributed_tris) /
                                  static_cast<double>(
                                      std::max<std::uint64_t>(
                                          1, trace.totalTriangles())),
                              1)
              << "% of triangles in distributed groups\n";
    return 0;
}
