/**
 * @file
 * Pixel-granularity image-composition operators (Section II-D of the paper).
 *
 * Opaque composition selects, per pixel, the fragment the paper's
 * depth-comparison function prefers; it is commutative and associative, so
 * sub-images can be composed out-of-order. Transparent composition blends
 * partial composites; the blend operators are associative but *not*
 * commutative, so adjacent sub-images may be merged asynchronously but never
 * reordered (f1.f2.f3.f4 = (f1.f2).(f3.f4)).
 *
 * Equal-depth resolution: to reproduce exactly what an in-order single GPU
 * would have produced, each opaque contribution carries the id of the draw
 * command that wrote it. Comparison functions that reject equality (Less,
 * Greater) keep the earliest writer on a depth tie; functions that accept
 * equality (LessEqual, GreaterEqual) keep the latest; Always ignores depth
 * and keeps the latest writer outright.
 */

#ifndef CHOPIN_COMP_OPERATORS_HH
#define CHOPIN_COMP_OPERATORS_HH

#include <cstdint>

#include "gfx/state.hh"
#include "util/color.hh"
#include "util/types.hh"

namespace chopin
{

/** One opaque pixel contribution: shaded color, depth, and writing draw. */
struct OpaquePixel
{
    Color color;
    float depth = 1.0f;
    DrawId writer = ~DrawId(0); ///< noWriter = background / never written
};

/** Writer id mapped so that "never written" sorts before every real draw. */
constexpr std::int64_t
effectiveWriter(DrawId w)
{
    return w == ~DrawId(0) ? -1 : static_cast<std::int64_t>(w);
}

/**
 * @return true if the comparison function @p func can be resolved by
 * out-of-order composition (the functions CHOPIN distributes; the rest fall
 * back to primitive duplication — see SfrChopin).
 */
constexpr bool
composableDepthFunc(DepthFunc func)
{
    switch (func) {
      case DepthFunc::Less:
      case DepthFunc::LessEqual:
      case DepthFunc::Greater:
      case DepthFunc::GreaterEqual:
      case DepthFunc::Always:
        return true;
      default:
        return false;
    }
}

/**
 * Decide whether incoming opaque contribution @p in replaces @p cur under
 * comparison function @p func. Deterministic, commutative-in-effect (the
 * relation is a strict total order on contributions), and associative.
 *
 * @pre composableDepthFunc(func)
 */
bool opaqueWins(DepthFunc func, const OpaquePixel &in, const OpaquePixel &cur);

/**
 * opaqueWins() for a contribution @p in rendered after @p cur on the same
 * GPU's private depth test, which is how CHOPIN folds each written
 * fragment into the render target as it lands. The only tie opaqueWins
 * leaves open is two writes of one draw (a draw overlapping itself): the
 * writer ids are equal, and in-order rendering keeps the later write
 * unless the earlier one strictly wins on depth.
 *
 * @pre composableDepthFunc(func)
 */
inline bool
opaqueReplaces(DepthFunc func, const OpaquePixel &in, const OpaquePixel &cur)
{
    return in.writer == cur.writer ? !opaqueWins(func, cur, in)
                                   : opaqueWins(func, in, cur);
}

/** Select the winning contribution (convenience over opaqueWins). */
inline OpaquePixel
composeOpaque(DepthFunc func, const OpaquePixel &a, const OpaquePixel &b)
{
    // a is "incoming", b is "current"; opaqueWins defines a total order so
    // the result is the same for either argument naming.
    return opaqueWins(func, a, b) ? a : b;
}

/**
 * Identity element of the transparent accumulation for @p op; a sub-image
 * cleared to this value composes as a no-op.
 */
Color transparentIdentity(BlendOp op);

/**
 * Merge two adjacent transparent partial composites. @p front accumulates
 * draws that come *later* in the input order (closer to the camera for
 * back-to-front ordered content); @p back accumulates earlier draws.
 *
 * For BlendOp::Over both arguments and the result are premultiplied colors
 * with coverage in .a; Additive and Multiply are commutative.
 *
 * @pre isTransparent(op)
 */
Color mergeTransparent(BlendOp op, const Color &front, const Color &back);

/**
 * Apply a finished transparent composite @p acc over the opaque background
 * pixel @p background.
 *
 * @pre isTransparent(op)
 */
Color finalizeTransparent(BlendOp op, const Color &acc,
                          const Color &background);

} // namespace chopin

#endif // CHOPIN_COMP_OPERATORS_HH
