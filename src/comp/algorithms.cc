#include "comp/algorithms.hh"

#include <algorithm>

#include "util/check.hh"
#include "util/log.hh"

namespace chopin
{

namespace
{

void
checkInputs(std::span<const DepthImage> subs)
{
    chopin_assert(!subs.empty(), "composition needs at least one sub-image");
    for (const DepthImage &s : subs) {
        chopin_assert(s.width() == subs[0].width() &&
                          s.height() == subs[0].height(),
                      "sub-image sizes must match");
    }
}

void
account(CompositionTraffic *traffic, Bytes bytes)
{
    if (traffic == nullptr)
        return;
    traffic->total_bytes += bytes;
    traffic->max_link_bytes = std::max(traffic->max_link_bytes, bytes);
    traffic->transfers += 1;
}

/** Compose rows [y0, y1) of @p src into @p dst. */
void
composeRows(DepthImage &dst, const DepthImage &src, DepthFunc func, int y0,
            int y1)
{
    for (int y = y0; y < y1; ++y) {
        for (int x = 0; x < dst.width(); ++x) {
            OpaquePixel cur = dst.at(x, y);
            OpaquePixel in = src.at(x, y);
            if (opaqueWins(func, in, cur))
                dst.set(x, y, in);
        }
    }
}

} // namespace

DepthImage
composeSerialSink(std::span<const DepthImage> subs, DepthFunc func,
                  CompositionTraffic *traffic)
{
    checkInputs(subs);
    DepthImage result = subs[0];
    Bytes image_bytes = static_cast<Bytes>(result.width()) * result.height() *
                        bytesPerOpaquePixel;
    for (std::size_t i = 1; i < subs.size(); ++i) {
        account(traffic, image_bytes); // rank i -> rank 0, full image
        composeRows(result, subs[i], func, 0, result.height());
    }
    return result;
}

DepthImage
composeDirectSend(std::span<const DepthImage> subs, DepthFunc func,
                  CompositionTraffic *traffic)
{
    checkInputs(subs);
    int n = static_cast<int>(subs.size());
    int h = subs[0].height();
    DepthImage result = subs[0];

    // Region r is the row band [r*h/n, (r+1)*h/n), owned by rank r. Each
    // rank sends each foreign region to its owner; owner r composes region r
    // from all n contributions. `result` starts as rank 0's sub-image, so
    // only ranks >= 1 still need composing; traffic is counted for every
    // transfer that crosses ranks (src != owner).
    int covered = 0; // region-partition invariant: bands tile [0, h)
    for (int r = 0; r < n; ++r) {
        int y0 = r * h / n;
        int y1 = (r + 1) * h / n;
        // Every screen row is owned by exactly one rank: band r starts
        // where band r-1 ended and the last band ends at the screen edge.
        CHOPIN_ASSERT(y0 == covered && y1 >= y0,
                      "direct-send bands do not partition the screen: band ",
                      r, " = [", y0, ",", y1, ") after ", covered, " rows");
        covered = y1;
        Bytes region_bytes = static_cast<Bytes>(y1 - y0) *
                             subs[0].width() * bytesPerOpaquePixel;
        for (int src = 0; src < n; ++src) {
            if (src != r)
                account(traffic, region_bytes); // src -> owner r
            if (src != 0)
                composeRows(result, subs[src], func, y0, y1);
        }
    }
    CHOPIN_ASSERT(covered == h, "direct-send bands cover ", covered, " of ",
                  h, " rows");
    // (The final gather to the display rank is not counted, matching the
    // convention of the direct-send literature.)
    return result;
}

DepthImage
composeBinarySwap(std::span<const DepthImage> subs, DepthFunc func,
                  CompositionTraffic *traffic)
{
    checkInputs(subs);
    std::size_t n = subs.size();
    chopin_assert((n & (n - 1)) == 0, "binary-swap needs a power-of-two rank "
                                      "count, got ", n);

    // Working copies: rank i's current partial composite.
    std::vector<DepthImage> work(subs.begin(), subs.end());
    int h = subs[0].height();
    int w = subs[0].width();

    // Each rank tracks the row band it is responsible for.
    std::vector<int> band_y0(n, 0);
    std::vector<int> band_y1(n, h);

    for (std::size_t stride = 1; stride < n; stride <<= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t partner = i ^ stride;
            if (partner < i)
                continue; // handle each pair once
            // Split both ranks' common band in half: the lower-index rank
            // keeps the top half, the partner keeps the bottom half; each
            // sends the half it gives up.
            int y0 = band_y0[i];
            int y1 = band_y1[i];
            int mid = (y0 + y1) / 2;

            Bytes half_bytes = static_cast<Bytes>(y1 - mid) * w *
                               bytesPerOpaquePixel;
            account(traffic, half_bytes); // i -> partner (bottom half)
            account(traffic, static_cast<Bytes>(mid - y0) * w *
                                 bytesPerOpaquePixel); // partner -> i

            composeRows(work[i], work[partner], func, y0, mid);
            composeRows(work[partner], work[i], func, mid, y1);

            band_y1[i] = mid;
            band_y0[partner] = mid;
        }
    }

    // Gather: every rank owns a disjoint band of the final image.
    DepthImage result(w, h);
    for (std::size_t i = 0; i < n; ++i)
        for (int y = band_y0[i]; y < band_y1[i]; ++y)
            for (int x = 0; x < w; ++x)
                result.set(x, y, work[i].at(x, y));
    return result;
}

DepthImage
composeRadixK(std::span<const DepthImage> subs, DepthFunc func,
              std::span<const unsigned> factors, CompositionTraffic *traffic)
{
    checkInputs(subs);
    std::size_t n = subs.size();
    std::size_t product = 1;
    for (unsigned k : factors) {
        chopin_assert(k >= 2, "radix-k factors must be >= 2");
        product *= k;
    }
    chopin_assert(product == n, "radix-k factors multiply to ", product,
                  " but there are ", n, " sub-images");

    std::vector<DepthImage> work(subs.begin(), subs.end());
    int h = subs[0].height();
    int w = subs[0].width();
    std::vector<int> band_y0(n, 0);
    std::vector<int> band_y1(n, h);

    // Mixed-radix digits: round r groups ranks that differ only in digit r
    // (stride = product of the earlier factors).
    std::size_t stride = 1;
    for (unsigned k : factors) {
        for (std::size_t base = 0; base < n; ++base) {
            // Process each group once, at its digit-0 member.
            if ((base / stride) % k != 0)
                continue;
            // Group members share a band; split it k ways.
            std::size_t member0 = base;
            int y0 = band_y0[member0];
            int y1 = band_y1[member0];
            for (unsigned j = 0; j < k; ++j) {
                std::size_t me = base + j * stride;
                chopin_assert(band_y0[me] == y0 && band_y1[me] == y1,
                              "radix-k group bands diverged");
            }
            for (unsigned j = 0; j < k; ++j) {
                std::size_t me = base + j * stride;
                int sy0 = y0 + static_cast<int>(
                                   (static_cast<long>(y1 - y0) * j) / k);
                int sy1 = y0 + static_cast<int>(
                                   (static_cast<long>(y1 - y0) * (j + 1)) /
                                   k);
                // Receive sub-band j from the other k-1 members.
                for (unsigned o = 0; o < k; ++o) {
                    if (o == j)
                        continue;
                    std::size_t other = base + o * stride;
                    account(traffic, static_cast<Bytes>(sy1 - sy0) * w *
                                         bytesPerOpaquePixel);
                    composeRows(work[me], work[other], func, sy0, sy1);
                }
            }
            // Update bands after all exchanges of the group.
            for (unsigned j = 0; j < k; ++j) {
                std::size_t me = base + j * stride;
                band_y0[me] = y0 + static_cast<int>(
                                       (static_cast<long>(y1 - y0) * j) / k);
                band_y1[me] =
                    y0 + static_cast<int>(
                             (static_cast<long>(y1 - y0) * (j + 1)) / k);
            }
        }
        stride *= k;
    }

    DepthImage result(w, h);
    for (std::size_t i = 0; i < n; ++i)
        for (int y = band_y0[i]; y < band_y1[i]; ++y)
            for (int x = 0; x < w; ++x)
                result.set(x, y, work[i].at(x, y));
    return result;
}

Image
composeTransparentLayers(std::span<const Image> layers, BlendOp op,
                         std::size_t split)
{
    chopin_assert(!layers.empty());
    chopin_assert(isTransparent(op));
    chopin_assert(split < layers.size());

    int w = layers[0].width();
    int h = layers[0].height();
    for (const Image &l : layers)
        chopin_assert(l.width() == w && l.height() == h);

    auto reduce = [&](std::size_t lo, std::size_t hi) {
        Image acc(w, h, transparentIdentity(op));
        for (std::size_t i = lo; i < hi; ++i)
            for (int y = 0; y < h; ++y)
                for (int x = 0; x < w; ++x)
                    acc.at(x, y) =
                        mergeTransparent(op, layers[i].at(x, y), acc.at(x, y));
        return acc;
    };

    if (split == 0)
        return reduce(0, layers.size());

    // Associative bracketing: merge the two halves independently, then the
    // later (front) half over the earlier (back) half.
    Image back = reduce(0, split);
    Image front = reduce(split, layers.size());
    Image out(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            out.at(x, y) = mergeTransparent(op, front.at(x, y), back.at(x, y));
    return out;
}

} // namespace chopin
