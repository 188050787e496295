#include "gfx/geometry.hh"

#include <algorithm>
#include <cmath>

namespace chopin
{

namespace
{

/** Clip-space vertex carried through near-plane clipping. */
struct ClipVertex
{
    Vec4 pos;
    Color color;
};

ClipVertex
lerp(const ClipVertex &a, const ClipVertex &b, float t)
{
    ClipVertex r;
    r.pos = a.pos + (b.pos - a.pos) * t;
    r.color = a.color + (b.color - a.color) * t;
    return r;
}

/**
 * Sutherland-Hodgman clip of a triangle against the near plane (w > eps).
 * Produces 0, 3 or 4 vertices.
 */
int
clipNear(const ClipVertex in[3], ClipVertex out[4])
{
    // A vertex is inside if it is in front of the near plane: z >= -w is the
    // GL convention; use w > eps as well to avoid dividing by ~0.
    constexpr float eps = 1e-6f;
    auto inside = [](const ClipVertex &v) {
        return v.pos.z >= -v.pos.w && v.pos.w > eps;
    };
    auto intersect = [](const ClipVertex &a, const ClipVertex &b) {
        // Solve z(t) = -w(t) along the edge a->b.
        float da = a.pos.z + a.pos.w;
        float db = b.pos.z + b.pos.w;
        float t = da / (da - db);
        return lerp(a, b, t);
    };

    int n = 0;
    for (int i = 0; i < 3; ++i) {
        const ClipVertex &cur = in[i];
        const ClipVertex &nxt = in[(i + 1) % 3];
        bool cin = inside(cur);
        bool nin = inside(nxt);
        if (cin)
            out[n++] = cur;
        if (cin != nin)
            out[n++] = intersect(cur, nxt);
    }
    return n;
}

ScreenVertex
toScreen(const ClipVertex &cv, const Viewport &vp)
{
    ScreenVertex sv;
    float inv_w = 1.0f / cv.pos.w;
    float ndc_x = cv.pos.x * inv_w;
    float ndc_y = cv.pos.y * inv_w;
    float ndc_z = cv.pos.z * inv_w;
    // NDC [-1,1] to pixels; y flipped so screen origin is top-left.
    sv.pos.x = (ndc_x * 0.5f + 0.5f) * static_cast<float>(vp.width);
    sv.pos.y = (0.5f - ndc_y * 0.5f) * static_cast<float>(vp.height);
    sv.z = ndc_z * 0.5f + 0.5f;
    sv.color = cv.color;
    return sv;
}

float
signedArea2(const ScreenTriangle &t)
{
    return (t.v[1].pos.x - t.v[0].pos.x) * (t.v[2].pos.y - t.v[0].pos.y) -
           (t.v[2].pos.x - t.v[0].pos.x) * (t.v[1].pos.y - t.v[0].pos.y);
}

} // namespace

void
ScreenTriangle::cacheBounds(int width, int height)
{
    bx1 = -1; // invalidate so boundingBox() computes instead of echoing
    by1 = -1;
    boundingBox(width, height, bx0, by0, bx1, by1);
}

void
ScreenTriangle::boundingBox(int width, int height, int &x0, int &y0, int &x1,
                            int &y1) const
{
    if (boundsCached()) {
        x0 = bx0;
        y0 = by0;
        x1 = bx1;
        y1 = by1;
        return;
    }
    float fx0 = std::min({v[0].pos.x, v[1].pos.x, v[2].pos.x});
    float fy0 = std::min({v[0].pos.y, v[1].pos.y, v[2].pos.y});
    float fx1 = std::max({v[0].pos.x, v[1].pos.x, v[2].pos.x});
    float fy1 = std::max({v[0].pos.y, v[1].pos.y, v[2].pos.y});
    x0 = std::max(0, static_cast<int>(std::floor(fx0)));
    y0 = std::max(0, static_cast<int>(std::floor(fy0)));
    x1 = std::min(width - 1, static_cast<int>(std::ceil(fx1)));
    y1 = std::min(height - 1, static_cast<int>(std::ceil(fy1)));
}

void
processPrimitive(const Triangle &tri, const Mat4 &mvp, const Viewport &vp,
                 bool backface_cull, std::vector<ScreenTriangle> &out,
                 DrawStats &stats)
{
    stats.tris_in += 1;
    stats.verts_shaded += 3;

    ClipVertex cv[3];
    for (int i = 0; i < 3; ++i) {
        cv[i].pos = transform(mvp, Vec4(tri.v[i].pos, 1.0f));
        cv[i].color = tri.v[i].color;
    }

    ClipVertex clipped[4];
    int n = clipNear(cv, clipped);
    if (n < 3) {
        stats.tris_clipped += 1;
        return;
    }

    // Triangulate the (possibly 4-vertex) clip result as a fan.
    for (int i = 1; i + 1 < n; ++i) {
        ScreenTriangle st;
        st.v[0] = toScreen(clipped[0], vp);
        st.v[1] = toScreen(clipped[i], vp);
        st.v[2] = toScreen(clipped[i + 1], vp);

        // Fully outside the viewport: clip trivially. cacheBounds() leaves
        // an empty (uncached) box in that case; triangles that survive
        // carry their clamped box for every downstream consumer.
        st.cacheBounds(vp.width, vp.height);
        if (!st.boundsCached()) {
            stats.tris_clipped += 1;
            continue;
        }

        float area2 = signedArea2(st);
        if (area2 == 0.0f || (backface_cull && area2 < 0.0f)) {
            stats.tris_culled += 1;
            continue;
        }
        out.push_back(st);
        stats.tris_rasterized += 1;
    }
}

double
screenArea(const ScreenTriangle &tri)
{
    return std::abs(signedArea2(tri)) * 0.5;
}

float
signedScreenArea2(const ScreenTriangle &tri)
{
    return signedArea2(tri);
}

} // namespace chopin
