#include "features/orb.hpp"

#include <array>
#include <cmath>

#include "math/cpu_features.hpp"
#include "math/rng.hpp"
#if defined(EDX_HAVE_AVX2)
#include "features/orb_avx2.hpp"
#endif

namespace edx {

namespace {

/** One BRIEF comparison: sample point pair inside the patch. */
struct PointPair
{
    float ax, ay, bx, by;
};

/**
 * The fixed 256-pair sampling pattern. Pairs are drawn once from an
 * isotropic Gaussian (sigma = patch_radius / 2) with a deterministic
 * seed, mirroring the learned-but-fixed pattern that ORB ships.
 */
const std::vector<PointPair> &
briefPattern()
{
    static const std::vector<PointPair> pattern = [] {
        std::vector<PointPair> p;
        p.reserve(256);
        Rng rng(0x04b1d); // fixed pattern seed
        const double sigma = kOrbPatchRadius / 2.0;
        auto clamped = [&](double v) {
            return std::clamp(v, -double(kOrbPatchRadius - 1),
                              double(kOrbPatchRadius - 1));
        };
        for (int i = 0; i < 256; ++i) {
            PointPair pp;
            pp.ax = static_cast<float>(clamped(rng.gaussian(0, sigma)));
            pp.ay = static_cast<float>(clamped(rng.gaussian(0, sigma)));
            pp.bx = static_cast<float>(clamped(rng.gaussian(0, sigma)));
            pp.by = static_cast<float>(clamped(rng.gaussian(0, sigma)));
            p.push_back(pp);
        }
        return p;
    }();
    return pattern;
}

#if defined(EDX_HAVE_AVX2)
/**
 * briefPattern() as four 256-float arrays back to back (ax, ay, bx,
 * by), the layout the AVX2 sampler loads 8 pairs at a time from.
 */
const float *
briefPatternSoA()
{
    static const auto soa = [] {
        std::array<float, 4 * 256> s{};
        const auto &p = briefPattern();
        for (int i = 0; i < 256; ++i) {
            s[i] = p[i].ax;
            s[256 + i] = p[i].ay;
            s[512 + i] = p[i].bx;
            s[768 + i] = p[i].by;
        }
        return s;
    }();
    return soa.data();
}
#endif

/**
 * Largest |dx| with dx^2 + dy^2 <= r^2 per |dy| row of the circular
 * orientation patch, so the moment loops run over contiguous spans.
 */
const int *
circleExtents()
{
    static const auto ext = [] {
        std::array<int, kOrbPatchRadius + 1> e{};
        const int r2 = kOrbPatchRadius * kOrbPatchRadius;
        for (int dy = 0; dy <= kOrbPatchRadius; ++dy) {
            int x = 0;
            while ((x + 1) * (x + 1) + dy * dy <= r2)
                ++x;
            e[dy] = x;
        }
        return e;
    }();
    return ext.data();
}

/**
 * Unclamped bilinear tap replicating Image::sampleBilinear's arithmetic
 * exactly for interior coordinates (where its clamps are no-ops).
 */
inline double
sampleBilinearFast(const ImageU8 &img, double x, double y)
{
    const int x0 = static_cast<int>(x);
    const int y0 = static_cast<int>(y);
    const double fx = x - x0;
    const double fy = y - y0;
    const uint8_t *r0 = img.rowPtr(y0);
    const uint8_t *r1 = img.rowPtr(y0 + 1);
    const double v00 = r0[x0];
    const double v10 = r0[x0 + 1];
    const double v01 = r1[x0];
    const double v11 = r1[x0 + 1];
    return v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy) +
           v01 * (1 - fx) * fy + v11 * fx * fy;
}

/** Margin inside which every rotated BRIEF tap stays off the clamps. */
constexpr int kOrbFastBorder = 21; // ceil(sqrt(2) * (radius - 1)) + 1

} // namespace

float
orbOrientation(const ImageU8 &img, float x, float y)
{
    // Intensity centroid over a circular patch: angle = atan2(m01, m10).
    const int r = kOrbPatchRadius;
    const int cx = static_cast<int>(std::lround(x));
    const int cy = static_cast<int>(std::lround(y));
    double m01 = 0.0, m10 = 0.0;
    const int *ext = circleExtents();
    if (cx - r >= 0 && cx + r < img.width() && cy - r >= 0 &&
        cy + r < img.height()) {
        // Interior fast path: integer moment accumulation over row
        // pointers. Every product and partial sum is an exact integer
        // (|m| <= ~2.7M), and the reference's double accumulation of
        // the same integers is exact too, so the final moments are
        // bit-identical to the clamped double loop.
        long m10i = 0, m01i = 0;
        for (int dy = -r; dy <= r; ++dy) {
            const uint8_t *row = img.rowPtr(cy + dy) + cx;
            const int e = ext[dy < 0 ? -dy : dy];
            int rowsum = 0, rowmoment = 0;
            for (int dx = -e; dx <= e; ++dx) {
                const int v = row[dx];
                rowsum += v;
                rowmoment += dx * v;
            }
            m10i += rowmoment;
            m01i += static_cast<long>(dy) * rowsum;
        }
        m10 = static_cast<double>(m10i);
        m01 = static_cast<double>(m01i);
    } else {
        for (int dy = -r; dy <= r; ++dy) {
            const int e = ext[dy < 0 ? -dy : dy];
            for (int dx = -e; dx <= e; ++dx) {
                const double v = img.atClamped(cx + dx, cy + dy);
                m10 += dx * v;
                m01 += dy * v;
            }
        }
    }
    return static_cast<float>(std::atan2(m01, m10));
}

float
orbOrientationReference(const ImageU8 &img, float x, float y)
{
    const int r = kOrbPatchRadius;
    const int cx = static_cast<int>(std::lround(x));
    const int cy = static_cast<int>(std::lround(y));
    double m01 = 0.0, m10 = 0.0;
    for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
            if (dx * dx + dy * dy > r * r)
                continue;
            double v = img.atClamped(cx + dx, cy + dy);
            m10 += dx * v;
            m01 += dy * v;
        }
    }
    return static_cast<float>(std::atan2(m01, m10));
}

void
computeOrbDescriptorsInto(const ImageU8 &img, std::vector<KeyPoint> &kps,
                          std::vector<Descriptor> &out)
{
    out.resize(kps.size());
    computeOrbDescriptorsRange(img, kps, 0, kps.size(), out);
}

void
computeOrbDescriptorsRange(const ImageU8 &img, std::vector<KeyPoint> &kps,
                           size_t begin, size_t end,
                           std::vector<Descriptor> &out)
{
    const auto &pattern = briefPattern();
#if defined(EDX_HAVE_AVX2)
    const float *wide_pattern =
        simdTierIsAvx2() ? briefPatternSoA() : nullptr;
#endif
    for (size_t i = begin; i < end; ++i) {
        KeyPoint &kp = kps[i];
        if (!img.containsWithBorder(kp.x, kp.y, kOrbPatchRadius + 1)) {
            out[i] = Descriptor{}; // zero descriptor for border points
            continue;
        }

        kp.angle = orbOrientation(img, kp.x, kp.y);
        const float ca = std::cos(kp.angle);
        const float sa = std::sin(kp.angle);
        const bool interior =
            img.containsWithBorder(kp.x, kp.y, kOrbFastBorder);

        Descriptor d;
#if defined(EDX_HAVE_AVX2)
        if (interior && wide_pattern) {
            // Bit-identical 8-wide twin of the loop below (the bytes of
            // the four words are the 32 bit groups, little-endian).
            avx2::briefDescriptor(
                img.data(), img.width(), kp.x, kp.y, ca, sa, wide_pattern,
                reinterpret_cast<unsigned char *>(d.bits.data()));
            out[i] = d;
            continue;
        }
#endif
        for (int b = 0; b < 256; ++b) {
            const PointPair &pp = pattern[b];
            // Rotate the sampling pair by the patch orientation.
            float ax = ca * pp.ax - sa * pp.ay + kp.x;
            float ay = sa * pp.ax + ca * pp.ay + kp.y;
            float bx = ca * pp.bx - sa * pp.by + kp.x;
            float by = sa * pp.bx + ca * pp.by + kp.y;
            double va, vb;
            if (interior) {
                va = sampleBilinearFast(img, ax, ay);
                vb = sampleBilinearFast(img, bx, by);
            } else {
                va = img.sampleBilinear(ax, ay);
                vb = img.sampleBilinear(bx, by);
            }
            if (va < vb)
                d.bits[b >> 6] |= (uint64_t{1} << (b & 63));
        }
        out[i] = d;
    }
}

std::vector<Descriptor>
computeOrbDescriptors(const ImageU8 &img, std::vector<KeyPoint> &kps)
{
    std::vector<Descriptor> out;
    computeOrbDescriptorsInto(img, kps, out);
    return out;
}

std::vector<Descriptor>
computeOrbDescriptorsReference(const ImageU8 &img,
                               std::vector<KeyPoint> &kps)
{
    const auto &pattern = briefPattern();
    std::vector<Descriptor> out(kps.size());

    for (size_t i = 0; i < kps.size(); ++i) {
        KeyPoint &kp = kps[i];
        if (!img.containsWithBorder(kp.x, kp.y, kOrbPatchRadius + 1))
            continue; // zero descriptor for border points

        kp.angle = orbOrientationReference(img, kp.x, kp.y);
        const float ca = std::cos(kp.angle);
        const float sa = std::sin(kp.angle);

        Descriptor d;
        for (int b = 0; b < 256; ++b) {
            const PointPair &pp = pattern[b];
            float ax = ca * pp.ax - sa * pp.ay + kp.x;
            float ay = sa * pp.ax + ca * pp.ay + kp.y;
            float bx = ca * pp.bx - sa * pp.by + kp.x;
            float by = sa * pp.bx + ca * pp.by + kp.y;
            double va = img.sampleBilinear(ax, ay);
            double vb = img.sampleBilinear(bx, by);
            if (va < vb)
                d.bits[b >> 6] |= (uint64_t{1} << (b & 63));
        }
        out[i] = d;
    }
    return out;
}

} // namespace edx
