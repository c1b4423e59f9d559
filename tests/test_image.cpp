/**
 * @file
 * Unit tests for the edx_image substrate.
 */
#include <gtest/gtest.h>

#include "image/draw.hpp"
#include "image/filter.hpp"
#include "image/image.hpp"
#include "image/pyramid.hpp"

namespace edx {
namespace {

TEST(Image, ConstructionAndAccess)
{
    ImageU8 img(10, 5, 7);
    EXPECT_EQ(img.width(), 10);
    EXPECT_EQ(img.height(), 5);
    EXPECT_EQ(img.pixelCount(), 50);
    EXPECT_EQ(img.at(3, 2), 7);
    img.at(3, 2) = 42;
    EXPECT_EQ(img.at(3, 2), 42);
}

TEST(Image, ClampedAccess)
{
    ImageU8 img(4, 4, 0);
    img.at(0, 0) = 10;
    img.at(3, 3) = 20;
    EXPECT_EQ(img.atClamped(-5, -5), 10);
    EXPECT_EQ(img.atClamped(100, 100), 20);
}

TEST(Image, ContainsWithBorder)
{
    ImageU8 img(10, 10);
    EXPECT_TRUE(img.containsWithBorder(5, 5, 3));
    EXPECT_FALSE(img.containsWithBorder(2, 5, 3));
    EXPECT_FALSE(img.containsWithBorder(5, 7.5, 3));
}

TEST(Image, BilinearInterpolation)
{
    ImageU8 img(2, 2);
    img.at(0, 0) = 0;
    img.at(1, 0) = 100;
    img.at(0, 1) = 100;
    img.at(1, 1) = 200;
    EXPECT_NEAR(img.sampleBilinear(0.5, 0.5), 100.0, 1e-9);
    EXPECT_NEAR(img.sampleBilinear(0.0, 0.0), 0.0, 1e-9);
    EXPECT_NEAR(img.sampleBilinear(0.5, 0.0), 50.0, 1e-9);
}

TEST(Image, FloatRoundTrip)
{
    ImageU8 img(3, 3);
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 3; ++x)
            img.at(x, y) = static_cast<uint8_t>(10 * (y * 3 + x));
    ImageU8 back = toU8(toFloat(img));
    EXPECT_DOUBLE_EQ(meanAbsDifference(img, back), 0.0);
}

TEST(Image, HalfScaleAveragesBlocks)
{
    ImageU8 img(4, 2);
    img.at(0, 0) = 10;
    img.at(1, 0) = 20;
    img.at(0, 1) = 30;
    img.at(1, 1) = 40;
    img.at(2, 0) = 100;
    img.at(3, 0) = 100;
    img.at(2, 1) = 100;
    img.at(3, 1) = 100;
    ImageU8 half = halfScale(img);
    ASSERT_EQ(half.width(), 2);
    ASSERT_EQ(half.height(), 1);
    EXPECT_EQ(half.at(0, 0), 25);
    EXPECT_EQ(half.at(1, 0), 100);
}

TEST(Filter, GaussianPreservesConstantImage)
{
    ImageU8 img(32, 32, 128);
    ImageU8 out = gaussianBlur(img);
    EXPECT_DOUBLE_EQ(meanAbsDifference(img, out), 0.0);
}

TEST(Filter, GaussianSmoothsImpulse)
{
    ImageU8 img(33, 33, 0);
    img.at(16, 16) = 255;
    ImageU8 out = gaussianBlur(img);
    EXPECT_LT(out.at(16, 16), 100);
    EXPECT_GT(out.at(16, 16), out.at(14, 16));
    EXPECT_GT(out.at(14, 16), out.at(12, 16));
}

TEST(Pyramid, LevelsHalve)
{
    ImageU8 img(64, 48);
    Pyramid p(img, 3);
    ASSERT_EQ(p.levels(), 3);
    EXPECT_EQ(p.level(0).width(), 64);
    EXPECT_EQ(p.level(1).width(), 32);
    EXPECT_EQ(p.level(2).width(), 16);
    EXPECT_EQ(p.level(2).height(), 12);
}

TEST(Pyramid, StopsAtTinyImages)
{
    ImageU8 img(4, 4);
    Pyramid p(img, 8);
    EXPECT_LE(p.levels(), 3);
}

TEST(Draw, TexturedPatchHasContrast)
{
    ImageU8 img(64, 64, 100);
    drawTexturedPatch(img, 32, 32, 10, 12345, 150);
    int lo = 255, hi = 0;
    for (int y = 22; y <= 42; ++y)
        for (int x = 22; x <= 42; ++x) {
            lo = std::min<int>(lo, img.at(x, y));
            hi = std::max<int>(hi, img.at(x, y));
        }
    EXPECT_GT(hi - lo, 40); // strong internal contrast for FAST/ORB
}

TEST(Draw, PatchIsDeterministicInTextureId)
{
    ImageU8 a(64, 64, 100), b(64, 64, 100);
    drawTexturedPatch(a, 20, 20, 8, 777, 140);
    drawTexturedPatch(b, 20, 20, 8, 777, 140);
    EXPECT_DOUBLE_EQ(meanAbsDifference(a, b), 0.0);
}

TEST(Draw, BrightnessScaleClampsAndScales)
{
    ImageU8 img(4, 4, 100);
    scaleBrightness(img, 1.5);
    EXPECT_EQ(img.at(0, 0), 150);
    scaleBrightness(img, 10.0);
    EXPECT_EQ(img.at(0, 0), 255);
}

TEST(Draw, NoiseChangesPixelsButKeepsMean)
{
    Rng rng(5);
    ImageU8 img(128, 128, 100);
    addPixelNoise(img, 5.0, rng);
    double sum = 0.0;
    for (int y = 0; y < 128; ++y)
        for (int x = 0; x < 128; ++x)
            sum += img.at(x, y);
    EXPECT_NEAR(sum / (128.0 * 128.0), 100.0, 0.5);
}

} // namespace
} // namespace edx
