/**
 * @file
 * Golden-output equivalence tests: every optimized frontend kernel
 * against its retained scalar reference implementation.
 *
 * The optimized kernels (fixed-point separable Gaussian, candidate-list
 * FAST NMS, raw-pointer ORB sampling, row-banded stereo MO, fast-path
 * SAD refinement, gradient-cached LK) are required to be *bit-exact* with
 * the references — not merely close — so every comparison here is exact
 * equality. Any fast-path arithmetic drift fails loudly.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "features/fast.hpp"
#include "features/optical_flow.hpp"
#include "features/orb.hpp"
#include "features/stereo.hpp"
#include "image/draw.hpp"
#include "image/filter.hpp"
#include "image/pyramid.hpp"
#include "math/rng.hpp"
#include "math/cpu_features.hpp"
#include "simd_tiers.hpp"

namespace edx {
namespace {

ImageU8
noisyImage(int w, int h, uint64_t seed, int patches = 12)
{
    ImageU8 img(w, h);
    Rng rng(seed);
    fillNoisyBackground(img, 110, 14, rng);
    uint32_t tex = 7000;
    for (int i = 0; i < patches; ++i)
        drawTexturedPatch(img, rng.uniform(4, w - 4),
                          rng.uniform(4, h - 4), 9, tex++, 170);
    return img;
}

void
expectImagesIdentical(const ImageU8 &a, const ImageU8 &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.pixelCount())));
}

void
expectKeypointsIdentical(const std::vector<KeyPoint> &a,
                         const std::vector<KeyPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].x, b[i].x) << "kp " << i;
        EXPECT_EQ(a[i].y, b[i].y) << "kp " << i;
        EXPECT_EQ(a[i].score, b[i].score) << "kp " << i;
        EXPECT_EQ(a[i].angle, b[i].angle) << "kp " << i;
    }
}

TEST(GaussianGolden, MatchesReferenceOnNoise)
{
    forEachSimdTier([&] {
        for (auto [w, h] : {std::pair{320, 240}, {33, 17}, {641, 13}}) {
            ImageU8 img = noisyImage(w, h, 100 + w);
            expectImagesIdentical(gaussianBlur(img),
                                  gaussianBlurReference(img));
        }
    });
}

TEST(GaussianGolden, MatchesReferenceOnTinyImages)
{
    forEachSimdTier([&] {
        // Narrower than the 7-tap kernel: the border loops own every pixel.
        for (auto [w, h] : {std::pair{1, 1}, {2, 9}, {6, 6}, {7, 3}}) {
            ImageU8 img = noisyImage(w, h, 300 + w * 10 + h);
            expectImagesIdentical(gaussianBlur(img),
                                  gaussianBlurReference(img));
        }
    });
}

TEST(GaussianGolden, PreservesConstantImage)
{
    forEachSimdTier([&] {
        // The fixed-point weights sum to exactly 2^16.
        ImageU8 img(64, 48, 137);
        ImageU8 out = gaussianBlur(img);
        EXPECT_DOUBLE_EQ(meanAbsDifference(img, out), 0.0);
    });
}

TEST(GaussianGolden, IntoReusesBuffersAcrossCalls)
{
    forEachSimdTier([&] {
        ImageU8 img = noisyImage(160, 120, 9);
        BlurScratch scratch;
        ImageU8 out;
        EXPECT_TRUE(gaussianBlurInto(img, scratch, out));  // first: grows
        ImageU8 first = out;
        EXPECT_FALSE(gaussianBlurInto(img, scratch, out)); // steady: reuses
        expectImagesIdentical(first, out);
    });
}

TEST(CentralDiffGolden, MatchesReference)
{
    for (auto [w, h] : {std::pair{320, 240}, {3, 3}, {1, 7}}) {
        ImageU8 img = noisyImage(w, h, 700 + w + h);
        Gradients fast = centralDiffGradients(img);
        Gradients ref = centralDiffGradientsReference(img);
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x) {
                EXPECT_EQ(fast.gx.at(x, y), ref.gx.at(x, y));
                EXPECT_EQ(fast.gy.at(x, y), ref.gy.at(x, y));
            }
    }
}

TEST(FastGolden, CornersAndScoresMatchReference)
{
    forEachSimdTier([&] {
        ImageU8 img = noisyImage(320, 240, 21, 30);
        FastConfig cfg;
        cfg.threshold = 16;
        expectKeypointsIdentical(detectFast(img, cfg),
                                 detectFastReference(img, cfg));
    });
}

TEST(FastGolden, MatchesReferenceWithoutNms)
{
    forEachSimdTier([&] {
        ImageU8 img = noisyImage(160, 120, 22, 15);
        FastConfig cfg;
        cfg.threshold = 14;
        cfg.nonmax_suppression = false;
        cfg.max_features = 100000;
        expectKeypointsIdentical(detectFast(img, cfg),
                                 detectFastReference(img, cfg));
    });
}

TEST(FastGolden, MatchesReferenceThroughGridSelection)
{
    forEachSimdTier([&] {
        ImageU8 img = noisyImage(320, 240, 23, 60);
        FastConfig cfg;
        cfg.threshold = 10;
        cfg.max_features = 60; // force the grid-bucketed cap
        expectKeypointsIdentical(detectFast(img, cfg),
                                 detectFastReference(img, cfg));
    });
}

TEST(FastGolden, ScratchReuseIsCleanAcrossImages)
{
    forEachSimdTier([&] {
        // The sparse score map must be left all-zero between calls, even
        // when the image shape changes in between.
        FastScratch scratch;
        std::vector<KeyPoint> out;
        FastConfig cfg;
        cfg.threshold = 14;
        ImageU8 a = noisyImage(320, 240, 24, 25);
        ImageU8 b = noisyImage(200, 150, 25, 25);
        detectFastInto(a, cfg, scratch, out);
        detectFastInto(b, cfg, scratch, out);
        expectKeypointsIdentical(out, detectFastReference(b, cfg));
        detectFastInto(a, cfg, scratch, out);
        expectKeypointsIdentical(out, detectFastReference(a, cfg));
    });
}

/** computeOrbDescriptors against its scalar reference, angles too. */
void
expectOrbMatchesReference(const ImageU8 &img, std::vector<KeyPoint> kps)
{
    std::vector<KeyPoint> kps_ref = kps;
    std::vector<Descriptor> fast = computeOrbDescriptors(img, kps);
    std::vector<Descriptor> ref =
        computeOrbDescriptorsReference(img, kps_ref);
    ASSERT_EQ(fast.size(), ref.size());
    for (size_t i = 0; i < fast.size(); ++i)
        EXPECT_EQ(fast[i], ref[i])
            << "descriptor " << i << " at " << kps[i].x << ","
            << kps[i].y;
    expectKeypointsIdentical(kps, kps_ref); // written-back angles
}

/** LK (cached gradients) against its scalar reference, per track. */
void
expectLkMatchesReference(const Pyramid &prev, const Pyramid &next,
                         const std::vector<KeyPoint> &kps,
                         size_t min_tracks)
{
    auto fast = trackLucasKanade(prev, next, kps);
    auto ref = trackLucasKanadeReference(prev, next, kps);
    ASSERT_GE(fast.size(), min_tracks);
    ASSERT_EQ(fast.size(), ref.size());
    for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].prev_index, ref[i].prev_index);
        EXPECT_EQ(fast[i].x, ref[i].x);
        EXPECT_EQ(fast[i].y, ref[i].y);
        EXPECT_EQ(fast[i].residual, ref[i].residual);
    }
}

TEST(OrbGolden, DescriptorsAndAnglesMatchReference)
{
    ImageU8 img = noisyImage(320, 240, 31, 40);
    ImageU8 blurred = gaussianBlur(img);
    FastConfig fcfg;
    fcfg.threshold = 14;
    std::vector<KeyPoint> kps = detectFast(img, fcfg);
    ASSERT_GT(kps.size(), 20u);

    // Stress both sampling paths: interior fast path and the clamped
    // slow path inside the [patch, fast-border) ring.
    kps.push_back({17.0f, 17.0f, 1.0f, 0.0f});
    kps.push_back({static_cast<float>(img.width() - 17),
                   static_cast<float>(img.height() - 17), 1.0f, 0.0f});
    kps.push_back({20.5f, 100.2f, 1.0f, 0.0f});
    kps.push_back({5.0f, 5.0f, 1.0f, 0.0f}); // border: zero descriptor

    forEachSimdTier([&] { expectOrbMatchesReference(blurred, kps); });
}

TEST(OrbGolden, OrientationMatchesReferenceNearBorders)
{
    ImageU8 img = noisyImage(64, 64, 32, 6);
    forEachSimdTier([&] {
        for (auto [x, y] : {std::pair{32.0f, 32.0f}, {16.0f, 16.0f},
                            {8.0f, 40.0f}, {60.0f, 60.0f}})
            EXPECT_EQ(orbOrientation(img, x, y),
                      orbOrientationReference(img, x, y))
                << "at " << x << "," << y;
    });
}

TEST(SimdBorders, WideReadsAtTheInteriorMarginsMatchScalarTwins)
{
    // The AVX2 twins read bytes the scalar code does not: a BRIEF
    // gather reads 4 bytes per tap row (x0 - 2 .. x0 + 1), an LK row
    // step reads column x0 + 16. Key points sit exactly on the margins
    // that admit them to the wide paths, on an image 157 px wide (not a
    // multiple of 16) whose last row ends its allocation. Under ASan the
    // LK loads are checked too (gathers are not): on the right margin
    // they reach the last column of every level.
    const int w = 157, h = 117;
    ImageU8 img = noisyImage(w, h, 61, 20);
    ImageU8 blurred = gaussianBlur(img);

    // ORB: the interior margin is 21 px (x >= 21 and x < w - 21); put
    // points on it, 1 px inside it, and just outside it, along every
    // edge. The noise turns their patterns every way, so their taps
    // reach toward every edge.
    std::vector<KeyPoint> orb_kps;
    const float hi_x = std::nextafter(static_cast<float>(w - 21), 0.0f);
    const float hi_y = std::nextafter(static_cast<float>(h - 21), 0.0f);
    for (float margin : {21.0f, 22.0f, 20.0f}) {
        const float far_x = margin == 21.0f ? hi_x : w - margin;
        const float far_y = margin == 21.0f ? hi_y : h - margin;
        for (float t = margin; t <= far_x; t += 3.5f) {
            orb_kps.push_back({t, margin, 1.0f, 0.0f});
            orb_kps.push_back({t, far_y, 1.0f, 0.0f});
        }
        for (float t = margin; t <= far_y; t += 3.5f) {
            orb_kps.push_back({margin, t, 1.0f, 0.0f});
            orb_kps.push_back({far_x, t, 1.0f, 0.0f});
        }
        orb_kps.push_back({far_x, far_y, 1.0f, 0.0f});
    }

    // LK: a level-l point at p tracks that level only while
    // p >= r + 2 and p < size - (r + 2) (r = 7); put points on both
    // edges of that band at every level, each corner included.
    Pyramid prev(img, 3), moved(blurred, 3);
    ASSERT_EQ(prev.levels(), 3);
    std::vector<KeyPoint> lk_kps;
    const int b = FlowConfig{}.window_radius + 2;
    for (int l = 0; l < prev.levels(); ++l) {
        const float s = static_cast<float>(1 << l);
        const float lo = b * s;
        const float far_x =
            std::nextafter((prev.level(l).width() - b) * s, 0.0f);
        const float far_y =
            std::nextafter((prev.level(l).height() - b) * s, 0.0f);
        for (float x : {lo, far_x})
            for (float y : {lo, far_y})
                lk_kps.push_back({x, y, 1.0f, 0.0f});
        lk_kps.push_back({lo, h / 2.0f, 1.0f, 0.0f});
        lk_kps.push_back({far_x, h / 2.0f, 1.0f, 0.0f});
        lk_kps.push_back({w / 2.0f, lo, 1.0f, 0.0f});
        lk_kps.push_back({w / 2.0f, far_y, 1.0f, 0.0f});
    }

    forEachSimdTier([&] {
        expectOrbMatchesReference(blurred, orb_kps);
        // Identical frames keep every point on its border for the
        // first iteration; the blurred frame moves them off it.
        expectLkMatchesReference(prev, prev, lk_kps, 1);
        expectLkMatchesReference(prev, moved, lk_kps, 0);
    });
}

TEST(StereoGolden, BandedMatcherIsBitExactWithAllPairs)
{
    // Random keypoints with random descriptors, including duplicated
    // descriptors so best/second-best ties exercise the
    // order-independent selection.
    Rng rng(77);
    const int h = 240;
    std::vector<KeyPoint> lk, rk;
    std::vector<Descriptor> ld, rd;
    auto randDesc = [&] {
        Descriptor d;
        for (auto &wbits : d.bits)
            wbits = (static_cast<uint64_t>(rng.nextU32()) << 32) |
                    rng.nextU32();
        return d;
    };
    for (int i = 0; i < 300; ++i) {
        lk.push_back({static_cast<float>(rng.uniform(0, 320)),
                      static_cast<float>(rng.uniform(0, h)), 1, 0});
        ld.push_back(randDesc());
    }
    for (int i = 0; i < 300; ++i) {
        rk.push_back({static_cast<float>(rng.uniform(0, 320)),
                      static_cast<float>(rng.uniform(0, h)), 1, 0});
        // Every third right descriptor clones a left one; clones of
        // clones create exact Hamming ties within a row band.
        rd.push_back(i % 3 == 0 ? ld[i] : randDesc());
    }
    // A cluster of same-row duplicates: guaranteed ties in one band.
    for (int i = 0; i < 8; ++i) {
        rk.push_back({100.0f - i, 50.25f, 1, 0});
        rd.push_back(ld[0]);
    }
    lk.push_back({130.0f, 50.0f, 1, 0});
    ld.push_back(ld[0]);

    StereoConfig cfg;
    cfg.max_hamming = 256; // let everything through to stress selection
    auto ref = stereoMatchInitial(lk, ld, rk, rd, cfg);

    StereoRowIndex rows;
    rows.build(rk, h);
    std::vector<StereoMatch> banded;
    long evaluated =
        stereoMatchBandedInto(lk, ld, rk, rd, cfg, rows, banded);

    ASSERT_EQ(banded.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(banded[i].left_index, ref[i].left_index);
        EXPECT_EQ(banded[i].disparity, ref[i].disparity);
        EXPECT_EQ(banded[i].hamming, ref[i].hamming);
    }
    // The band covers a small slice of the rows, so the evaluated
    // count must sit far below the all-pairs sweep.
    EXPECT_GT(evaluated, 0);
    EXPECT_LT(evaluated,
              static_cast<long>(lk.size()) *
                  static_cast<long>(rk.size()) / 10);
}

TEST(StereoGolden, RefineMatchesReferenceIncludingBorders)
{
    // Rectified pair with patches at a known disparity, some close to
    // the image border so the clamped slow path runs too.
    ImageU8 left(320, 120), right(320, 120);
    Rng rl(81), rr(82);
    fillNoisyBackground(left, 100, 5, rl);
    fillNoisyBackground(right, 100, 5, rr);
    uint32_t tex = 900;
    std::vector<KeyPoint> lk;
    for (auto [x, y] : {std::pair{40.0, 8.0}, {60.0, 60.0},
                        {300.0, 100.0}, {150.0, 114.0}, {31.0, 30.0}}) {
        drawTexturedPatch(left, x, y, 9, tex, 170);
        drawTexturedPatch(right, x - 22.0, y, 9, tex, 170);
        ++tex;
        lk.push_back({static_cast<float>(x), static_cast<float>(y), 1, 0});
    }
    std::vector<StereoMatch> seed;
    for (int i = 0; i < static_cast<int>(lk.size()); ++i)
        seed.push_back({i, 21.0f, 10}); // off by 1: the sweep must move

    std::vector<StereoMatch> fast = seed, ref = seed;
    StereoConfig cfg;
    stereoRefineDisparity(left, right, lk, fast, cfg);
    stereoRefineDisparityReference(left, right, lk, ref, cfg);
    for (size_t i = 0; i < seed.size(); ++i)
        EXPECT_EQ(fast[i].disparity, ref[i].disparity) << "match " << i;
}

TEST(LkGolden, TracksMatchReference)
{
    std::vector<std::pair<double, double>> pts;
    Rng rng(91);
    for (int i = 0; i < 12; ++i)
        pts.push_back({rng.uniformInt(40, 270), rng.uniformInt(40, 200)});
    ImageU8 prev(320, 240), next(320, 240);
    Rng rp(92);
    fillNoisyBackground(prev, 100, 6, rp);
    uint32_t tex = 5000;
    for (auto [x, y] : pts)
        drawTexturedPatch(prev, x, y, 8, tex++, 160);
    Rng rn(93);
    fillNoisyBackground(next, 100, 6, rn);
    tex = 5000;
    for (auto [x, y] : pts)
        drawTexturedPatch(next, x + 5, y - 2, 8, tex++, 160);

    std::vector<KeyPoint> kps;
    for (auto [x, y] : pts)
        kps.push_back({static_cast<float>(x), static_cast<float>(y), 1, 0});

    Pyramid pp(prev, 3), np(next, 3);
    forEachSimdTier([&] { expectLkMatchesReference(pp, np, kps, 7); });
}

TEST(PyramidGolden, RebuildMatchesFreshConstruction)
{
    ImageU8 a = noisyImage(128, 96, 41);
    ImageU8 b = noisyImage(64, 48, 42);
    Pyramid reused;
    reused.rebuild(a, 3);
    reused.rebuild(b, 3); // shrink: reuse buffers
    Pyramid fresh(b, 3);
    ASSERT_EQ(reused.levels(), fresh.levels());
    for (int l = 0; l < fresh.levels(); ++l)
        expectImagesIdentical(reused.level(l), fresh.level(l));
}

} // namespace
} // namespace edx
