/**
 * @file
 * Pipeline state that accompanies each draw command: depth/stencil test
 * configuration and the pixel blend operator.
 *
 * These are exactly the state bits whose changes define CHOPIN's five
 * composition-group boundary events (Section IV-A of the paper): render
 * target, depth-write enable, depth comparison function, and blend operator.
 */

#ifndef CHOPIN_GFX_STATE_HH
#define CHOPIN_GFX_STATE_HH

#include <cstdint>
#include <string>

#include "stats/metrics.hh"
#include "util/types.hh"

namespace chopin
{

/** Depth (and stencil) comparison functions, DirectX/OpenGL style. */
enum class DepthFunc : std::uint8_t
{
    Never,
    Less,
    Equal,
    LessEqual,
    Greater,
    NotEqual,
    GreaterEqual,
    Always,
};

/** @return true if @p func accepts a fragment equal in depth to the buffer. */
constexpr bool
acceptsEqual(DepthFunc func)
{
    return func == DepthFunc::Equal || func == DepthFunc::LessEqual ||
           func == DepthFunc::GreaterEqual || func == DepthFunc::Always;
}

/** @return true if smaller depth means "closer" under @p func. */
constexpr bool
prefersSmaller(DepthFunc func)
{
    return func == DepthFunc::Less || func == DepthFunc::LessEqual;
}

/** Evaluate @p func for incoming depth @p z against buffer depth @p buf. */
constexpr bool
depthTest(DepthFunc func, float z, float buf)
{
    switch (func) {
      case DepthFunc::Never:        return false;
      case DepthFunc::Less:         return z < buf;
      case DepthFunc::Equal:        return z == buf;
      case DepthFunc::LessEqual:    return z <= buf;
      case DepthFunc::Greater:      return z > buf;
      case DepthFunc::NotEqual:     return z != buf;
      case DepthFunc::GreaterEqual: return z >= buf;
      case DepthFunc::Always:       return true;
    }
    return false;
}

/**
 * Pixel blend operators. Opaque overwrites; the other three are the
 * transparent operators discussed in Section II-D. All transparent operators
 * are associative but only Additive and Multiply are commutative.
 */
enum class BlendOp : std::uint8_t
{
    Opaque,   ///< no blending; fragment replaces the pixel
    Over,     ///< Porter-Duff over: p = p_new + (1 - a_new) * p_old
    Additive, ///< p = p_old + p_new
    Multiply, ///< p = p_old * p_new
};

/** @return true if @p op blends with the existing pixel (transparency). */
constexpr bool
isTransparent(BlendOp op)
{
    return op != BlendOp::Opaque;
}

/** What happens to the stencil value when the stencil+depth tests pass. */
enum class StencilOp : std::uint8_t
{
    Keep,      ///< leave the stencil value unchanged
    Replace,   ///< write the reference value
    Increment, ///< saturating increment
    Decrement, ///< saturating decrement
    Zero,      ///< clear to zero
};

/** Stencil comparison: does reference @p ref pass @p func against the
 *  buffer value @p buf (GL convention: ref FUNC buffer)? */
constexpr bool
stencilCompare(DepthFunc func, std::uint8_t ref, std::uint8_t buf)
{
    switch (func) {
      case DepthFunc::Never:        return false;
      case DepthFunc::Less:         return ref < buf;
      case DepthFunc::Equal:        return ref == buf;
      case DepthFunc::LessEqual:    return ref <= buf;
      case DepthFunc::Greater:      return ref > buf;
      case DepthFunc::NotEqual:     return ref != buf;
      case DepthFunc::GreaterEqual: return ref >= buf;
      case DepthFunc::Always:       return true;
    }
    return false;
}

/** Apply @p op to stencil value @p value with reference @p ref. */
constexpr std::uint8_t
applyStencilOp(StencilOp op, std::uint8_t value, std::uint8_t ref)
{
    switch (op) {
      case StencilOp::Keep:      return value;
      case StencilOp::Replace:   return ref;
      case StencilOp::Increment: return value == 0xff ? value : value + 1;
      case StencilOp::Decrement: return value == 0 ? value : value - 1;
      case StencilOp::Zero:      return 0;
    }
    return value;
}

/** Full per-draw raster state. */
struct RasterState
{
    /** Render target this draw writes to (0 = the framebuffer). */
    std::uint32_t render_target = 0;
    /** Depth buffer bound with the render target. */
    std::uint32_t depth_buffer = 0;
    bool depth_test = true;
    bool depth_write = true;
    DepthFunc depth_func = DepthFunc::LessEqual;
    BlendOp blend_op = BlendOp::Opaque;
    /**
     * True if the pixel shader may discard fragments (alpha test) or
     * replace depth; such draws cannot use the early depth/stencil test.
     */
    bool shader_discard = false;

    // --- Stencil (tested together with depth: "depth/stencil test") ------
    bool stencil_test = false;
    /** Comparison of the reference value against the buffer value. */
    DepthFunc stencil_func = DepthFunc::Always;
    std::uint8_t stencil_ref = 0;
    /** Applied when both the stencil and depth tests pass. */
    StencilOp stencil_pass_op = StencilOp::Keep;

    bool operator==(const RasterState &o) const = default;
};

std::string toString(StencilOp op);

/** Human-readable names (for tables and debug output). */
std::string toString(DepthFunc func);
std::string toString(BlendOp op);

/**
 * Per-draw functional statistics produced by the renderer; the timing model
 * converts these into stage cycles.
 */
struct DrawStats
{
    std::uint64_t verts_shaded = 0;     ///< vertices transformed
    std::uint64_t tris_in = 0;          ///< input primitives
    std::uint64_t tris_clipped = 0;     ///< removed by near-plane/viewport
    std::uint64_t tris_culled = 0;      ///< removed by backface culling
    std::uint64_t tris_rasterized = 0;  ///< reached the rasterizer
    std::uint64_t tris_coarse_rejected = 0; ///< bbox missed this GPU's tiles
    std::uint64_t frags_generated = 0;  ///< covered pixels (pre-z)
    std::uint64_t frags_early_pass = 0; ///< passed early depth/stencil
    std::uint64_t frags_early_fail = 0; ///< culled by early depth/stencil
    std::uint64_t frags_late_pass = 0;  ///< passed late depth/stencil
    std::uint64_t frags_late_fail = 0;  ///< culled by late depth/stencil
    std::uint64_t frags_shaded = 0;     ///< ran the pixel shader
    std::uint64_t frags_textured = 0;   ///< sampled a texture (TEX units)
    std::uint64_t frags_written = 0;    ///< blended/written to the target

    DrawStats &operator+=(const DrawStats &o);
    bool operator==(const DrawStats &o) const = default;

    /** Metric registry visitation (stats/metrics.hh). */
    template <typename Self, typename V>
    static void
    visitMetrics(Self &self, V &&v)
    {
        v.field({"totals.verts_shaded", "count"}, self.verts_shaded);
        v.field({"totals.tris_in", "count"}, self.tris_in);
        v.field({"totals.tris_clipped", "count"}, self.tris_clipped);
        v.field({"totals.tris_culled", "count"}, self.tris_culled);
        v.field({"totals.tris_rasterized", "count"}, self.tris_rasterized);
        v.field({"totals.tris_coarse_rejected", "count"},
                self.tris_coarse_rejected);
        v.field({"totals.frags_generated", "count"}, self.frags_generated);
        v.field({"totals.frags_early_pass", "count"}, self.frags_early_pass);
        v.field({"totals.frags_early_fail", "count"}, self.frags_early_fail);
        v.field({"totals.frags_late_pass", "count"}, self.frags_late_pass);
        v.field({"totals.frags_late_fail", "count"}, self.frags_late_fail);
        v.field({"totals.frags_shaded", "count"}, self.frags_shaded);
        v.field({"totals.frags_textured", "count"}, self.frags_textured);
        v.field({"totals.frags_written", "count"}, self.frags_written);
    }
};

} // namespace chopin

#endif // CHOPIN_GFX_STATE_HH
