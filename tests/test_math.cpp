/**
 * @file
 * Unit tests for the edx_math substrate: fixed/dynamic linear algebra,
 * decompositions, quaternions, statistics, and regression.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "math/blas.hpp"
#include "math/decomp.hpp"
#include "math/mat.hpp"
#include "math/matx.hpp"
#include "math/quat.hpp"
#include "math/regression.hpp"
#include "math/rng.hpp"
#include "math/cpu_features.hpp"
#include "math/se3.hpp"
#include "math/stats.hpp"
#include "math/vec.hpp"
#include "simd_tiers.hpp"

namespace edx {
namespace {

TEST(Vec, BasicArithmetic)
{
    Vec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_DOUBLE_EQ((a + b)[0], 5.0);
    EXPECT_DOUBLE_EQ((a - b)[2], -3.0);
    EXPECT_DOUBLE_EQ((a * 2.0)[1], 4.0);
    EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
    EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
}

TEST(Vec, CrossProductIsPerpendicular)
{
    Vec3 a{1, 2, 3}, b{-2, 0.5, 4};
    Vec3 c = cross(a, b);
    EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
    EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec, CrossMatchesSkew)
{
    Vec3 a{0.3, -1.2, 2.0}, b{5, 6, 7};
    Vec3 c1 = cross(a, b);
    Vec3 c2 = skew(a) * b;
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(c1[i], c2[i], 1e-12);
}

TEST(Vec, NormalizedHasUnitNorm)
{
    EXPECT_NEAR((Vec3{10, -3, 2}).normalized().norm(), 1.0, 1e-12);
}

TEST(Vec, UnitAndConstant)
{
    EXPECT_DOUBLE_EQ(Vec4::unit(2)[2], 1.0);
    EXPECT_DOUBLE_EQ(Vec4::unit(2)[0], 0.0);
    EXPECT_DOUBLE_EQ(Vec3::constant(7.0)[1], 7.0);
}

TEST(Mat, IdentityMultiplication)
{
    Mat3 m{1, 2, 3, 4, 5, 6, 7, 8, 10};
    Mat3 r = m * Mat3::identity();
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(r(i, j), m(i, j));
}

TEST(Mat, Inverse3x3)
{
    Mat3 m{2, 0, 1, 0, 3, -1, 1, 1, 4};
    Mat3 mi = inverse(m);
    Mat3 p = m * mi;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(p(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(Mat, Inverse2x2)
{
    Mat2 m{3, 1, 2, 5};
    Mat2 p = m * inverse(m);
    EXPECT_NEAR(p(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(p(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(p(1, 1), 1.0, 1e-12);
}

TEST(Mat, TransposeRoundTrip)
{
    Mat34 m{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    Mat<4, 3> t = m.transpose();
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_DOUBLE_EQ(t(j, i), m(i, j));
}

TEST(Mat, OuterProduct)
{
    Vec3 a{1, 2, 3};
    Vec2 b{4, 5};
    Mat<3, 2> m = outer(a, b);
    EXPECT_DOUBLE_EQ(m(2, 1), 15.0);
    EXPECT_DOUBLE_EQ(m(0, 0), 4.0);
}

TEST(Mat, DeterminantOfSingularIsZero)
{
    Mat3 m{1, 2, 3, 2, 4, 6, 1, 1, 1};
    EXPECT_NEAR(det(m), 0.0, 1e-12);
}

TEST(MatX, MultiplicationMatchesFixed)
{
    Mat3 a{1, 2, 3, 4, 5, 6, 7, 8, 9};
    Mat3 b{2, 0, 1, 1, 3, 2, 0, 1, 1};
    Mat3 cf = a * b;
    MatX ax(a), bx(b);
    MatX cx = ax * bx;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(cx(i, j), cf(i, j), 1e-12);
}

TEST(MatX, BlockRoundTrip)
{
    MatX m(5, 7);
    MatX b(2, 3);
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 3; ++j)
            b(i, j) = i * 10 + j + 1;
    m.setBlock(2, 3, b);
    MatX g = m.block(2, 3, 2, 3);
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(g(i, j), b(i, j));
    EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatX, GramMatchesExplicit)
{
    Rng rng(7);
    MatX a(6, 4);
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 4; ++j)
            a(i, j) = rng.gaussian();
    MatX g1 = gram(a);
    MatX g2 = a.transpose() * a;
    EXPECT_NEAR((g1 - g2).maxAbs(), 0.0, 1e-12);
}

TEST(MatX, MultiplyTransposedMatchesExplicit)
{
    Rng rng(8);
    MatX a(3, 5), b(4, 5);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 5; ++j)
            a(i, j) = rng.gaussian();
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 5; ++j)
            b(i, j) = rng.gaussian();
    MatX r1 = multiplyTransposed(a, b);
    MatX r2 = a * b.transpose();
    EXPECT_NEAR((r1 - r2).maxAbs(), 0.0, 1e-12);
}

TEST(MatX, ConservativeResizePreservesContent)
{
    MatX m(2, 2);
    m(0, 0) = 1;
    m(1, 1) = 2;
    m.conservativeResize(3, 3);
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(2, 2), 0.0);
    m.conservativeResize(1, 1);
    EXPECT_EQ(m.rows(), 1);
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
}

class SpdFixture : public ::testing::TestWithParam<int>
{
  protected:
    /** Builds a random SPD matrix of the parameterized size. */
    MatX
    randomSpd(int n, uint64_t seed)
    {
        Rng rng(seed);
        MatX a(n, n);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                a(i, j) = rng.gaussian();
        MatX s = gram(a);
        for (int i = 0; i < n; ++i)
            s(i, i) += n; // diagonally dominate for conditioning
        return s;
    }
};

TEST_P(SpdFixture, CholeskyReconstructs)
{
    const int n = GetParam();
    MatX s = randomSpd(n, 100 + n);
    Cholesky chol(s);
    ASSERT_TRUE(chol.ok());
    MatX l = chol.matrixL();
    MatX rec = multiplyTransposed(l, l);
    EXPECT_NEAR((rec - s).maxAbs(), 0.0, 1e-9 * n);
}

TEST_P(SpdFixture, CholeskySolveResidualIsSmall)
{
    const int n = GetParam();
    MatX s = randomSpd(n, 200 + n);
    Rng rng(300 + n);
    VecX b(n);
    for (int i = 0; i < n; ++i)
        b[i] = rng.gaussian();
    Cholesky chol(s);
    ASSERT_TRUE(chol.ok());
    VecX x = chol.solve(b);
    VecX r = s * x - b;
    EXPECT_LT(r.maxAbs(), 1e-8);
}

TEST_P(SpdFixture, LuSolveMatchesCholesky)
{
    const int n = GetParam();
    MatX s = randomSpd(n, 400 + n);
    Rng rng(500 + n);
    VecX b(n);
    for (int i = 0; i < n; ++i)
        b[i] = rng.gaussian();
    Cholesky chol(s);
    PartialPivLU lu(s);
    ASSERT_TRUE(chol.ok());
    ASSERT_TRUE(lu.ok());
    VecX x1 = chol.solve(b);
    VecX x2 = lu.solve(b);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(x1[i], x2[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdFixture,
                         ::testing::Values(1, 2, 3, 6, 10, 25, 60));

TEST(Decomp, CholeskyRejectsIndefinite)
{
    MatX m = MatX::identity(3);
    m(2, 2) = -1.0;
    Cholesky chol(m);
    EXPECT_FALSE(chol.ok());
}

TEST(Decomp, LuInverse)
{
    Rng rng(11);
    MatX a(8, 8);
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            a(i, j) = rng.gaussian();
    for (int i = 0; i < 8; ++i)
        a(i, i) += 8.0;
    PartialPivLU lu(a);
    ASSERT_TRUE(lu.ok());
    MatX p = a * lu.inverse();
    EXPECT_NEAR((p - MatX::identity(8)).maxAbs(), 0.0, 1e-9);
}

TEST(Decomp, LuDeterminantMatchesFixed)
{
    Mat3 m{2, 0, 1, 0, 3, -1, 1, 1, 4};
    PartialPivLU lu{MatX(m)};
    EXPECT_NEAR(lu.determinant(), det(m), 1e-10);
}

TEST(Decomp, LuDetectsSingular)
{
    MatX m(3, 3);
    m(0, 0) = 1.0;
    m(1, 0) = 2.0; // rank 1
    PartialPivLU lu(m);
    EXPECT_FALSE(lu.ok());
}

TEST(Decomp, QrReconstructsLeastSquares)
{
    // Overdetermined system with known solution in the least-squares
    // sense: fit y = 2 + 3x exactly.
    MatX a(5, 2);
    VecX b(5);
    for (int i = 0; i < 5; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = i;
        b[i] = 2.0 + 3.0 * i;
    }
    HouseholderQR qr(a);
    VecX x = qr.solve(b);
    EXPECT_NEAR(x[0], 2.0, 1e-10);
    EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(Decomp, QrRPreservesNorms)
{
    // ||A e_j|| should match ||R e_j|| since Q is orthogonal.
    Rng rng(21);
    MatX a(10, 4);
    for (int i = 0; i < 10; ++i)
        for (int j = 0; j < 4; ++j)
            a(i, j) = rng.gaussian();
    HouseholderQR qr(a);
    const MatX &r = qr.matrixR();
    for (int j = 0; j < 4; ++j) {
        double na = 0.0, nr = 0.0;
        for (int i = 0; i < 10; ++i)
            na += a(i, j) * a(i, j);
        for (int i = 0; i < 4; ++i)
            nr += r(i, j) * r(i, j);
        EXPECT_NEAR(std::sqrt(na), std::sqrt(nr), 1e-9);
    }
}

TEST(Decomp, QrQtbPreservesNorm)
{
    Rng rng(22);
    MatX a(12, 5);
    for (int i = 0; i < 12; ++i)
        for (int j = 0; j < 5; ++j)
            a(i, j) = rng.gaussian();
    VecX b(12);
    for (int i = 0; i < 12; ++i)
        b[i] = rng.gaussian();
    HouseholderQR qr(a);
    EXPECT_NEAR(qr.qtb(b).norm(), b.norm(), 1e-9);
}

TEST(Decomp, QrRankDetection)
{
    MatX a(6, 3);
    Rng rng(23);
    for (int i = 0; i < 6; ++i) {
        a(i, 0) = rng.gaussian();
        a(i, 1) = 2.0 * a(i, 0); // dependent column
        a(i, 2) = rng.gaussian();
    }
    HouseholderQR qr(a);
    EXPECT_EQ(qr.rank(1e-8), 2);
}

TEST(Decomp, TriangularSolvers)
{
    MatX l(3, 3);
    l(0, 0) = 2;
    l(1, 0) = 1;
    l(1, 1) = 3;
    l(2, 0) = -1;
    l(2, 1) = 2;
    l(2, 2) = 4;
    VecX b{std::vector<double>{2, 5, 9}};
    VecX x = forwardSubstitute(l, b);
    VecX r = l * x - b;
    EXPECT_LT(r.maxAbs(), 1e-12);

    MatX u = l.transpose();
    VecX y = backwardSubstitute(u, b);
    VecX r2 = u * y - b;
    EXPECT_LT(r2.maxAbs(), 1e-12);
}

TEST(Decomp, SolveSpdFallsBackToLu)
{
    // Symmetric indefinite: Cholesky fails, LU succeeds.
    MatX m(2, 2);
    m(0, 0) = 0.0;
    m(0, 1) = 1.0;
    m(1, 0) = 1.0;
    m(1, 1) = 0.0;
    VecX b{std::vector<double>{3, 4}};
    auto x = solveSpd(m, b);
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 4.0, 1e-12);
    EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Decomp, BlockDiagonalInverseMatchesDense)
{
    // Build [A B; B^T D] with diagonal A (8) and dense SPD D (6x6),
    // mirroring the marginalization Amm structure of Sec. VI-A.
    Rng rng(31);
    const int dn = 8, pn = 6, n = dn + pn;
    MatX m(n, n);
    for (int i = 0; i < dn; ++i)
        m(i, i) = 1.0 + rng.uniform();
    MatX b(dn, pn);
    for (int i = 0; i < dn; ++i)
        for (int j = 0; j < pn; ++j)
            b(i, j) = 0.1 * rng.gaussian();
    for (int i = 0; i < dn; ++i)
        for (int j = 0; j < pn; ++j) {
            m(i, dn + j) = b(i, j);
            m(dn + j, i) = b(i, j);
        }
    MatX d(pn, pn);
    for (int i = 0; i < pn; ++i)
        for (int j = 0; j < pn; ++j)
            d(i, j) = rng.gaussian();
    MatX dd = gram(d);
    for (int i = 0; i < pn; ++i)
        dd(i, i) += pn;
    m.setBlock(dn, dn, dd);

    auto inv = invertBlockDiagonalSymmetric(m, dn);
    ASSERT_TRUE(inv.has_value());
    MatX p = m * *inv;
    EXPECT_NEAR((p - MatX::identity(n)).maxAbs(), 0.0, 1e-8);

    PartialPivLU lu(m);
    ASSERT_TRUE(lu.ok());
    EXPECT_NEAR((*inv - lu.inverse()).maxAbs(), 0.0, 1e-8);
}

// --- Blocked/SIMD kernels vs retained references -----------------------
//
// The backend equivalence contract (mirroring the frontend kernels):
// gemm/gemv and the LU trailing update are *bit-exact* with their
// scalar references; dot-product kernels and the blocked
// factorizations are bounded. The sweeps below cover the
// MSCKF-realistic grid: state dims d in {15..200} and stacked rows up
// to several multiples of d.

MatX
randomMat(int r, int c, uint64_t seed)
{
    Rng rng(seed);
    MatX m(r, c);
    for (int i = 0; i < r; ++i)
        for (int j = 0; j < c; ++j)
            m(i, j) = rng.gaussian();
    return m;
}

TEST(Blas, GemmMatchesReferenceBitExact)
{
    forEachSimdTier([&] {
        // Sizes straddle the k-panel (64) and exercise all unroll tails.
        const int sizes[][3] = {{1, 1, 1},   {2, 3, 4},   {5, 7, 3},
                                {15, 15, 15}, {33, 64, 17}, {65, 130, 9},
                                {90, 200, 90}, {128, 64, 128}};
        for (const auto &s : sizes) {
            MatX a = randomMat(s[0], s[1], 1000 + s[0] + s[1]);
            MatX b = randomMat(s[1], s[2], 2000 + s[1] + s[2]);
            MatX c_opt, c_ref;
            gemmInto(a, b, c_opt);
            gemmReference(a, b, c_ref);
            for (int i = 0; i < c_opt.rows(); ++i)
                for (int j = 0; j < c_opt.cols(); ++j)
                    EXPECT_EQ(c_opt(i, j), c_ref(i, j))
                        << s[0] << "x" << s[1] << "x" << s[2] << " @ (" << i
                        << "," << j << ")";
        }
    });
}

TEST(Blas, GemmZeroDimensionsAreSafe)
{
    MatX a(0, 5), b(5, 3), c;
    gemmInto(a, b, c);
    EXPECT_EQ(c.rows(), 0);
    EXPECT_EQ(c.cols(), 3);

    MatX a2(4, 0), b2(0, 3);
    gemmInto(a2, b2, c);
    EXPECT_EQ(c.rows(), 4);
    EXPECT_EQ(c.cols(), 3);
    EXPECT_DOUBLE_EQ(c.maxAbs(), 0.0);

    MatX a3(3, 4), b3(4, 0);
    gemmInto(a3, b3, c);
    EXPECT_EQ(c.cols(), 0);
}

TEST(Blas, MultiplyTransposedMatchesReference)
{
    forEachSimdTier([&] {
        for (int m : {1, 2, 7, 30, 121}) {
            for (int k : {1, 3, 16, 95}) {
                MatX a = randomMat(m, k, 31 * m + k);
                MatX b = randomMat(m + 2, k, 57 * m + k);
                MatX opt, ref;
                multiplyTransposedInto(a, b, opt);
                multiplyTransposedReference(a, b, ref);
                EXPECT_NEAR((opt - ref).maxAbs(), 0.0, 1e-12 * k)
                    << m << "x" << k;
            }
        }
    });
}

TEST(Blas, SymmetricSandwichMatchesReferenceAndIsExactlySymmetric)
{
    forEachSimdTier([&] {
        for (int d : {15, 33, 75, 141, 200}) {
            const int rows = d / 2 + 2;
            MatX h = randomMat(rows, d, 400 + d);
            MatX p0 = randomMat(d, d, 500 + d);
            MatX p = gram(p0); // symmetric
            MatX hp_o, s_o, hp_r, s_r;
            symmetricSandwichInto(h, p, hp_o, s_o);
            symmetricSandwichReference(h, p, hp_r, s_r);
            const double scale = s_r.maxAbs();
            EXPECT_NEAR((hp_o - hp_r).maxAbs() / scale, 0.0, 1e-13) << d;
            EXPECT_NEAR((s_o - s_r).maxAbs() / scale, 0.0, 1e-13) << d;
            for (int i = 0; i < rows; ++i)
                for (int j = 0; j < i; ++j)
                    EXPECT_EQ(s_o(i, j), s_o(j, i)) << "asymmetric at " << i
                                                    << "," << j;
        }
    });
}

TEST(Blas, SymmetricDowndateMatchesReferenceAndIsExactlySymmetric)
{
    forEachSimdTier([&] {
        for (int d : {15, 45, 99, 200}) {
            const int rows = 2 * d / 3 + 1;
            MatX a = randomMat(rows, d, 600 + d);
            MatX b = randomMat(rows, d, 700 + d);
            // Make a^T b numerically symmetric enough for the contract by
            // using b = a scaled (the covariance-downdate shape); exact
            // symmetry of the optimized output must hold regardless.
            MatX c_o = MatX::identity(d) * 3.0;
            MatX c_r = c_o;
            symmetricDowndateInto(a, a, c_o);
            symmetricDowndateReference(a, a, c_r);
            const double scale = std::max(1.0, c_r.maxAbs());
            EXPECT_NEAR((c_o - c_r).maxAbs() / scale, 0.0, 1e-12) << d;
            for (int i = 0; i < d; ++i)
                for (int j = 0; j < i; ++j)
                    EXPECT_EQ(c_o(i, j), c_o(j, i));
            // Mixed A/B still matches the reference numerically.
            MatX c2_o = MatX::identity(d) * 3.0, c2_r = c2_o;
            symmetricDowndateInto(a, b, c2_o);
            symmetricDowndateReference(a, b, c2_r);
            for (int i = 0; i < d; ++i)
                for (int j = 0; j <= i; ++j)
                    EXPECT_NEAR(c2_o(i, j), c2_r(i, j),
                                1e-12 * std::max(1.0, c2_r.maxAbs()));
        }
    });
}

TEST(Blas, SyrkMatchesMultiplyTransposed)
{
    forEachSimdTier([&] {
        MatX a = randomMat(37, 80, 808);
        MatX s, ref;
        syrkInto(a, s);
        multiplyTransposedReference(a, a, ref);
        EXPECT_NEAR((s - ref).maxAbs(), 0.0, 1e-11);
    });
}

TEST(MatX, ResizeReusesCapacityAndZeroFills)
{
    MatX m(10, 10);
    m(3, 4) = 7.0;
    m.resize(4, 6);
    EXPECT_EQ(m.rows(), 4);
    EXPECT_EQ(m.cols(), 6);
    EXPECT_DOUBLE_EQ(m.maxAbs(), 0.0);
    EXPECT_GE(m.capacityBytes(), 100 * sizeof(double));
}

TEST(MatX, ConservativeResizeWiderAndNarrower)
{
    MatX m(3, 2);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 2; ++j)
            m(i, j) = 10.0 * i + j + 1;
    m.conservativeResize(4, 5); // wider + taller
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 2; ++j)
            EXPECT_DOUBLE_EQ(m(i, j), 10.0 * i + j + 1);
    for (int j = 2; j < 5; ++j)
        EXPECT_DOUBLE_EQ(m(1, j), 0.0);
    for (int j = 0; j < 5; ++j)
        EXPECT_DOUBLE_EQ(m(3, j), 0.0);

    m.conservativeResize(2, 1); // narrower + shorter
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 11.0);

    // Narrower but taller: stale storage must read as zero.
    MatX w(2, 6);
    for (int j = 0; j < 6; ++j)
        w(1, j) = 5.0 + j;
    w.conservativeResize(4, 3);
    EXPECT_DOUBLE_EQ(w(1, 0), 5.0);
    EXPECT_DOUBLE_EQ(w(1, 2), 7.0);
    for (int i = 2; i < 4; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(w(i, j), 0.0);
}

TEST(MatX, RemoveRowsAndColsDropsBand)
{
    const int n = 7, at = 2, cut = 3;
    MatX m = randomMat(n, n, 99);
    MatX expect(n - cut, n - cut);
    auto keep = [&](int i) { return i < at ? i : i + cut; };
    for (int i = 0; i < n - cut; ++i)
        for (int j = 0; j < n - cut; ++j)
            expect(i, j) = m(keep(i), keep(j));
    m.removeRowsAndCols(at, cut);
    ASSERT_EQ(m.rows(), n - cut);
    EXPECT_NEAR((m - expect).maxAbs(), 0.0, 0.0);
}

TEST(Decomp, BlockedCholeskyMatchesReferenceSweep)
{
    forEachSimdTier([&] {
        for (int d : {1, 2, 15, 31, 32, 33, 64, 100, 161, 200}) {
            Rng rng(3000 + d);
            MatX a = randomMat(d, d, 3000 + d);
            MatX s = gram(a);
            for (int i = 0; i < d; ++i)
                s(i, i) += d;
            Cholesky blocked(s);
            CholeskyReference ref(s);
            ASSERT_TRUE(blocked.ok()) << d;
            ASSERT_TRUE(ref.ok()) << d;
            const double scale = ref.matrixL().maxAbs();
            EXPECT_NEAR(
                (blocked.matrixL() - ref.matrixL()).maxAbs() / scale, 0.0,
                1e-12)
                << d;

            VecX b(d);
            for (int i = 0; i < d; ++i)
                b[i] = rng.gaussian();
            VecX xb = blocked.solve(b);
            VecX xr = ref.solve(b);
            for (int i = 0; i < d; ++i)
                EXPECT_NEAR(xb[i], xr[i], 1e-9) << d;
        }
    });
}

TEST(Decomp, BlockedCholeskyRejectsIndefiniteLikeReference)
{
    MatX m = MatX::identity(40);
    m(33, 33) = -1.0;
    EXPECT_FALSE(Cholesky(m).ok());
    EXPECT_FALSE(CholeskyReference(m).ok());
}

TEST(Decomp, CholeskyPsdRoundoffFallsBackToLu)
{
    // Positive semi-definite up to round-off: the trailing Cholesky
    // pivot comes out negative, Cholesky must reject, and solveSpd
    // must still solve via the LU fallback.
    const double eps = 1e-13;
    MatX m(2, 2);
    m(0, 0) = 1.0;
    m(0, 1) = 1.0;
    m(1, 0) = 1.0;
    m(1, 1) = 1.0 - eps; // Schur pivot is -eps
    EXPECT_FALSE(Cholesky(m).ok());
    VecX b{std::vector<double>{1.0, 2.0}};
    auto x = solveSpd(m, b);
    ASSERT_TRUE(x.has_value());
    // Analytic solution: x2 = -1/eps, x1 = 1 - x2.
    EXPECT_NEAR((*x)[1], -1.0 / eps, 1e-3 / eps);
    EXPECT_NEAR((*x)[0], 1.0 + 1.0 / eps, 1e-3 / eps);
}

TEST(Decomp, ZeroSizeMatricesAreSafe)
{
    MatX empty(0, 0);
    Cholesky chol(empty);
    EXPECT_TRUE(chol.ok());
    EXPECT_EQ(chol.solve(VecX(0)).size(), 0);

    PartialPivLU lu(empty);
    EXPECT_TRUE(lu.ok());
    EXPECT_EQ(lu.solve(MatX(0, 0)).rows(), 0);

    HouseholderQR qr(empty);
    EXPECT_EQ(qr.rank(), 0);
    EXPECT_EQ(qr.qtb(VecX(0)).size(), 0);
    MatX r_out;
    qr.extractRInto(r_out);
    EXPECT_EQ(r_out.rows(), 0);

    // Zero columns with nonzero rows (no track survives the gates).
    MatX tall(5, 0);
    HouseholderQR qr2(tall);
    VecX b(5, 1.0);
    EXPECT_EQ(qr2.qtb(b).size(), 5);
    EXPECT_EQ(qr2.solve(b).size(), 0);
}

TEST(Decomp, BlockedQrMatchesReferenceSweep)
{
    forEachSimdTier([&] {
        // MSCKF-realistic grid: d in {15..200}, rows in {2..6m} per the
        // stacked-Jacobian shapes (nullspace blocks are 2m-3 x d tall).
        const int shapes[][2] = {{2, 1},    {3, 3},    {15, 15},  {45, 15},
                                 {40, 33},  {120, 60}, {200, 100}, {260, 65},
                                 {400, 200}};
        for (const auto &sh : shapes) {
            const int rows = sh[0], cols = sh[1];
            MatX a = randomMat(rows, cols, 5000 + rows + cols);
            HouseholderQR blocked(a);
            HouseholderQRReference ref(a);
            const double scale = std::max(1.0, ref.matrixR().maxAbs());
            EXPECT_NEAR(
                (blocked.matrixR() - ref.matrixR()).maxAbs() / scale, 0.0,
                1e-11)
                << rows << "x" << cols;

            Rng rng(6000 + rows);
            VecX b(rows);
            for (int i = 0; i < rows; ++i)
                b[i] = rng.gaussian();
            VecX qtb_b = blocked.qtb(b);
            VecX qtb_r = ref.qtb(b);
            EXPECT_NEAR(qtb_b.norm(), b.norm(), 1e-9)
                << rows << "x" << cols; // orthogonality
            for (int i = 0; i < cols; ++i)
                EXPECT_NEAR(qtb_b[i], qtb_r[i], 1e-9 * scale)
                    << rows << "x" << cols << " row " << i;

            VecX xb = blocked.solve(b);
            VecX xr = ref.solve(b);
            for (int i = 0; i < cols; ++i)
                EXPECT_NEAR(xb[i], xr[i], 1e-7) << rows << "x" << cols;
        }
    });
}

TEST(Decomp, BlockedQrRankDeficient)
{
    // Two dependent column pairs across panel boundaries.
    const int rows = 80, cols = 40;
    MatX a = randomMat(rows, cols, 7777);
    for (int i = 0; i < rows; ++i) {
        a(i, 7) = 2.0 * a(i, 3);
        a(i, 36) = -1.5 * a(i, 20);
    }
    HouseholderQR qr(a);
    HouseholderQRReference ref(a);
    EXPECT_EQ(qr.rank(1e-8), cols - 2);
    EXPECT_EQ(ref.rank(1e-8), cols - 2);

    // The zero-component convention of the solver must hold on the
    // deficient system (no NaNs/Infs).
    VecX b(rows, 1.0);
    VecX x = qr.solve(b);
    for (int i = 0; i < cols; ++i)
        EXPECT_TRUE(std::isfinite(x[i]));
}

TEST(Decomp, QtbInPlaceMatrixMatchesColumnwiseApplication)
{
    forEachSimdTier([&] {
        MatX a = randomMat(60, 24, 888);
        HouseholderQR qr(a);
        MatX b = randomMat(60, 9, 889);
        MatX out = qr.qtb(b);
        // Column-by-column through the vector path must agree.
        for (int c = 0; c < b.cols(); ++c) {
            VecX col(b.rows());
            for (int r = 0; r < b.rows(); ++r)
                col[r] = b(r, c);
            VecX ref = qr.qtb(col);
            for (int r = 0; r < b.rows(); ++r)
                EXPECT_EQ(out(r, c), ref[r]) << "col " << c << " row " << r;
        }
    });
}

TEST(Decomp, ExtractRMatchesMatrixR)
{
    MatX a = randomMat(50, 20, 4321);
    HouseholderQR qr(a);
    MatX r_out;
    qr.extractRInto(r_out);
    EXPECT_NEAR((r_out - qr.matrixR()).maxAbs(), 0.0, 0.0);
}

TEST(Decomp, SolveUpperIntoMatchesSolve)
{
    MatX a = randomMat(30, 12, 11);
    HouseholderQR qr(a);
    Rng rng(12);
    VecX b(30);
    for (int i = 0; i < 30; ++i)
        b[i] = rng.gaussian();
    VecX y = qr.qtb(b);
    VecX x1;
    qr.solveUpperInto(y, x1);
    VecX x2 = qr.solve(b);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(x1[i], x2[i]);
}

TEST(Decomp, ComputeReusesAcrossShapes)
{
    // One solver object across growing/shrinking problems (the
    // workspace usage pattern of the backend).
    Cholesky chol;
    PartialPivLU lu;
    HouseholderQR qr;
    for (int n : {20, 50, 8, 64, 30}) {
        MatX a = randomMat(n, n, 900 + n);
        MatX s = gram(a);
        for (int i = 0; i < n; ++i)
            s(i, i) += n;
        ASSERT_TRUE(chol.compute(s));
        MatX rec = multiplyTransposed(chol.matrixL(), chol.matrixL());
        EXPECT_NEAR((rec - s).maxAbs(), 0.0, 1e-8 * n);

        ASSERT_TRUE(lu.compute(s));
        VecX b(n, 1.0);
        VecX x = lu.solve(b);
        EXPECT_LT((s * x - b).maxAbs(), 1e-7);

        MatX t = randomMat(2 * n, n, 950 + n);
        qr.compute(t);
        VecX b2(2 * n, 0.5);
        EXPECT_NEAR(qr.qtb(b2).norm(), b2.norm(), 1e-9);
    }
}

TEST(Decomp, SubstituteIntoMatchesVectorSolvers)
{
    forEachSimdTier([&] {
        const int n = 40, nc = 7;
        MatX a = randomMat(n, n, 77);
        MatX l(n, n), u(n, n);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                if (j <= i)
                    l(i, j) = a(i, j) + (i == j ? n : 0.0);
                if (j >= i)
                    u(i, j) = a(i, j) + (i == j ? n : 0.0);
            }
        MatX b = randomMat(n, nc, 78);
        MatX xf, xb;
        forwardSubstituteInto(l, b, xf);
        backwardSubstituteInto(u, b, xb);
        for (int c = 0; c < nc; ++c) {
            VecX col(n);
            for (int r = 0; r < n; ++r)
                col[r] = b(r, c);
            VecX xfc = forwardSubstitute(l, col);
            VecX xbc = backwardSubstitute(u, col);
            for (int r = 0; r < n; ++r) {
                EXPECT_EQ(xf(r, c), xfc[r]) << "fwd " << r << "," << c;
                EXPECT_EQ(xb(r, c), xbc[r]) << "bwd " << r << "," << c;
            }
        }
    });
}

TEST(Quat, IdentityRotatesNothing)
{
    Vec3 v{1, 2, 3};
    Vec3 r = Quat::identity().rotate(v);
    for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(r[i], v[i]);
}

TEST(Quat, AxisAngleKnownRotation)
{
    // 90 degrees about z maps x to y.
    Quat q = Quat::fromAxisAngle(Vec3{0, 0, 1}, M_PI / 2);
    Vec3 r = q.rotate(Vec3{1, 0, 0});
    EXPECT_NEAR(r[0], 0.0, 1e-12);
    EXPECT_NEAR(r[1], 1.0, 1e-12);
    EXPECT_NEAR(r[2], 0.0, 1e-12);
}

TEST(Quat, RotationMatrixAgrees)
{
    Quat q = Quat::fromYawPitchRoll(0.3, -0.2, 0.7);
    Vec3 v{0.5, -1.5, 2.0};
    Vec3 r1 = q.rotate(v);
    Vec3 r2 = q.toRotationMatrix() * v;
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(r1[i], r2[i], 1e-12);
}

TEST(Quat, MatrixRoundTrip)
{
    Quat q = Quat::fromYawPitchRoll(1.1, 0.4, -0.9);
    Quat q2 = Quat::fromRotationMatrix(q.toRotationMatrix());
    EXPECT_NEAR(q.angularDistance(q2), 0.0, 1e-10);
}

TEST(Quat, ExpLogRoundTrip)
{
    Vec3 phi{0.2, -0.5, 0.9};
    Vec3 back = Quat::exp(phi).log();
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(back[i], phi[i], 1e-10);
}

TEST(Quat, ExpLogSmallAngle)
{
    Vec3 phi{1e-14, -2e-14, 1e-14};
    Vec3 back = Quat::exp(phi).log();
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(back[i], phi[i], 1e-15);
}

TEST(Quat, CompositionMatchesMatrixProduct)
{
    Quat a = Quat::fromYawPitchRoll(0.1, 0.2, 0.3);
    Quat b = Quat::fromYawPitchRoll(-0.4, 0.5, -0.6);
    Mat3 m1 = (a * b).toRotationMatrix();
    Mat3 m2 = a.toRotationMatrix() * b.toRotationMatrix();
    EXPECT_NEAR((MatX(m1) - MatX(m2)).maxAbs(), 0.0, 1e-12);
}

TEST(Quat, IntegrationMatchesAxisAngle)
{
    Vec3 omega{0.0, 0.0, 0.5}; // rad/s about z
    Quat q = Quat::identity().integrated(omega, 2.0);
    Quat expect = Quat::fromAxisAngle(Vec3{0, 0, 1}, 1.0);
    EXPECT_NEAR(q.angularDistance(expect), 0.0, 1e-12);
}

TEST(Quat, RightJacobianSmallAngleLimit)
{
    Mat3 j = so3RightJacobian(Vec3{1e-12, 0, 0});
    EXPECT_NEAR((MatX(j) - MatX(Mat3::identity())).maxAbs(), 0.0, 1e-9);
}

TEST(Quat, RightJacobianFiniteDifference)
{
    // exp(phi + dphi) ~ exp(phi) * exp(J_r(phi) dphi)
    Vec3 phi{0.3, -0.2, 0.5};
    Vec3 dphi{1e-6, 2e-6, -1e-6};
    Quat lhs = Quat::exp(phi + dphi);
    Quat rhs = Quat::exp(phi) * Quat::exp(so3RightJacobian(phi) * dphi);
    EXPECT_NEAR(lhs.angularDistance(rhs), 0.0, 1e-10);
}

TEST(Pose, ApplyAndInverse)
{
    Pose p(Quat::fromYawPitchRoll(0.5, 0.1, -0.3), Vec3{1, 2, 3});
    Vec3 x{4, 5, 6};
    Vec3 y = p.apply(x);
    Vec3 back = p.inverse().apply(y);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(back[i], x[i], 1e-12);
}

TEST(Pose, CompositionIsAssociativeOnPoints)
{
    Pose a(Quat::fromYawPitchRoll(0.2, 0, 0), Vec3{1, 0, 0});
    Pose b(Quat::fromYawPitchRoll(0, 0.3, 0), Vec3{0, 2, 0});
    Vec3 x{1, 1, 1};
    Vec3 y1 = (a * b).apply(x);
    Vec3 y2 = a.apply(b.apply(x));
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Stats, MeanStdDev)
{
    std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
    EXPECT_DOUBLE_EQ(rsdPercent(xs), 40.0);
}

TEST(Stats, Percentiles)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, RmseAndR2)
{
    std::vector<double> obs{1, 2, 3, 4};
    std::vector<double> exact = obs;
    EXPECT_DOUBLE_EQ(rmse(obs, exact), 0.0);
    EXPECT_DOUBLE_EQ(rSquared(obs, exact), 1.0);
    std::vector<double> worst{2.5, 2.5, 2.5, 2.5}; // predicting the mean
    EXPECT_NEAR(rSquared(obs, worst), 0.0, 1e-12);
}

TEST(Stats, SummaryConsistent)
{
    std::vector<double> xs{10, 20, 30};
    Summary s = summarize(xs);
    EXPECT_DOUBLE_EQ(s.mean, 20.0);
    EXPECT_DOUBLE_EQ(s.min, 10.0);
    EXPECT_DOUBLE_EQ(s.max, 30.0);
    EXPECT_EQ(s.count, 3);
}

TEST(Stats, EmptyInputsAreSafe)
{
    std::vector<double> e;
    EXPECT_DOUBLE_EQ(mean(e), 0.0);
    EXPECT_DOUBLE_EQ(stddev(e), 0.0);
    EXPECT_DOUBLE_EQ(percentile(e, 50), 0.0);
    EXPECT_DOUBLE_EQ(minValue(e), 0.0);
    EXPECT_DOUBLE_EQ(maxValue(e), 0.0);
}

TEST(Regression, ExactLinearFit)
{
    std::vector<double> xs{0, 1, 2, 3, 4};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(1.5 + 2.5 * x);
    PolynomialModel m = PolynomialModel::fit(xs, ys, 1);
    EXPECT_NEAR(m.coefficients()[0], 1.5, 1e-10);
    EXPECT_NEAR(m.coefficients()[1], 2.5, 1e-10);
    EXPECT_NEAR(m.r2(xs, ys), 1.0, 1e-12);
}

TEST(Regression, ExactQuadraticFit)
{
    std::vector<double> xs{-2, -1, 0, 1, 2, 3};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(2.0 - x + 0.5 * x * x);
    PolynomialModel m = PolynomialModel::fit(xs, ys, 2);
    EXPECT_NEAR(m.predict(5.0), 2.0 - 5.0 + 0.5 * 25.0, 1e-9);
    EXPECT_NEAR(m.r2(xs, ys), 1.0, 1e-12);
}

TEST(Regression, NoisyFitHasHighR2)
{
    Rng rng(77);
    std::vector<double> xs, ys;
    for (int i = 0; i < 200; ++i) {
        double x = rng.uniform(0, 100);
        xs.push_back(x);
        ys.push_back(3.0 + 0.2 * x + rng.gaussian(0, 0.5));
    }
    PolynomialModel m = PolynomialModel::fit(xs, ys, 1);
    EXPECT_GT(m.r2(xs, ys), 0.98);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Rng, UniformRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(2.0, 5.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(2);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(rng.gaussian());
    EXPECT_NEAR(mean(xs), 0.0, 0.02);
    EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(3);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 1000; ++i) {
        int v = rng.uniformInt(1, 6);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 6);
        hit_lo |= (v == 1);
        hit_hi |= (v == 6);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

} // namespace
} // namespace edx
