#include "math/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "math/aligned_alloc.hpp"
#include "math/simd_util.hpp"

namespace edx {

using detail::axpyRow;
using detail::divRow;
using detail::dotRows;
using detail::scaleRow;

namespace {

// Panel widths of the blocked factorizations. Sized so a panel times a
// ~200-dim trailing block (the MSCKF compression shape) stays cache
// resident; tests sweep well past both in either direction.
constexpr int kCholeskyNb = 32;
constexpr int kQrNb = 32;

} // namespace

// --- Cholesky (blocked) ------------------------------------------------

bool
Cholesky::compute(const MatX &a)
{
    assert(a.rows() == a.cols());
    const int n = a.rows();
    ok_ = false;
    l_.resize(n, n);
    for (int i = 0; i < n; ++i) {
        const double *src = a.data() + static_cast<size_t>(i) * n;
        double *dst = l_.data() + static_cast<size_t>(i) * n;
        std::copy(src, src + i + 1, dst);
    }

    // Left-looking panels: the bulk of the work is the row-dot trailing
    // update (a GEMM-shaped sweep), the panel factor itself is short.
    for (int p0 = 0; p0 < n; p0 += kCholeskyNb) {
        const int p1 = std::min(p0 + kCholeskyNb, n);
        if (p0 > 0) {
            for (int i = p0; i < n; ++i) {
                double *li = l_.data() + static_cast<size_t>(i) * n;
                const int jmax = std::min(p1, i + 1);
                for (int j = p0; j < jmax; ++j)
                    li[j] -= dotRows(
                        li, l_.data() + static_cast<size_t>(j) * n, p0);
            }
        }
        for (int j = p0; j < p1; ++j) {
            double *lj = l_.data() + static_cast<size_t>(j) * n;
            double d = lj[j] - dotRows(lj + p0, lj + p0, j - p0);
            if (d <= 0.0 || !std::isfinite(d))
                return false;
            const double ljj = std::sqrt(d);
            lj[j] = ljj;
            for (int i = j + 1; i < n; ++i) {
                double *li = l_.data() + static_cast<size_t>(i) * n;
                li[j] = (li[j] - dotRows(li + p0, lj + p0, j - p0)) / ljj;
            }
        }
    }
    ok_ = true;
    return true;
}

void
Cholesky::solveInPlace(VecX &b) const
{
    assert(ok_);
    const int n = l_.rows();
    assert(b.size() == n);
    for (int i = 0; i < n; ++i) {
        const double *li = l_.data() + static_cast<size_t>(i) * n;
        double s = b[i];
        for (int j = 0; j < i; ++j)
            s -= li[j] * b[j];
        b[i] = s / li[i];
    }
    for (int i = n - 1; i >= 0; --i) {
        double s = b[i];
        for (int j = i + 1; j < n; ++j)
            s -= l_(j, i) * b[j];
        b[i] = s / l_(i, i);
    }
}

VecX
Cholesky::solve(const VecX &b) const
{
    VecX x = b;
    solveInPlace(x);
    return x;
}

void
Cholesky::solveInPlace(MatX &b) const
{
    assert(ok_);
    const int n = l_.rows();
    assert(b.rows() == n);
    const int nc = b.cols();
    // Forward L Y = B, then backward L^T X = Y; both row-oriented, so
    // every right-hand side streams contiguously (no column walks).
    for (int i = 0; i < n; ++i) {
        double *bi = b.data() + static_cast<size_t>(i) * nc;
        const double *li = l_.data() + static_cast<size_t>(i) * n;
        for (int j = 0; j < i; ++j)
            axpyRow(-li[j], b.data() + static_cast<size_t>(j) * nc, bi,
                    nc);
        divRow(li[i], bi, nc);
    }
    for (int i = n - 1; i >= 0; --i) {
        double *bi = b.data() + static_cast<size_t>(i) * nc;
        for (int j = i + 1; j < n; ++j)
            axpyRow(-l_(j, i), b.data() + static_cast<size_t>(j) * nc,
                    bi, nc);
        divRow(l_(i, i), bi, nc);
    }
}

MatX
Cholesky::solve(const MatX &b) const
{
    MatX x = b;
    solveInPlace(x);
    return x;
}

double
Cholesky::logDeterminant() const
{
    assert(ok_);
    double s = 0.0;
    for (int i = 0; i < l_.rows(); ++i)
        s += std::log(l_(i, i));
    return 2.0 * s;
}

// --- CholeskyReference (retained seed algorithm) -----------------------

bool
CholeskyReference::compute(const MatX &a)
{
    assert(a.rows() == a.cols());
    const int n = a.rows();
    ok_ = false;
    l_ = MatX(n, n);
    for (int j = 0; j < n; ++j) {
        double d = a(j, j);
        for (int k = 0; k < j; ++k)
            d -= l_(j, k) * l_(j, k);
        if (d <= 0.0 || !std::isfinite(d))
            return false;
        double lj = std::sqrt(d);
        l_(j, j) = lj;
        for (int i = j + 1; i < n; ++i) {
            double s = a(i, j);
            for (int k = 0; k < j; ++k)
                s -= l_(i, k) * l_(j, k);
            l_(i, j) = s / lj;
        }
    }
    ok_ = true;
    return true;
}

VecX
CholeskyReference::solve(const VecX &b) const
{
    assert(ok_);
    VecX y = forwardSubstitute(l_, b);
    const int n = l_.rows();
    VecX x(n);
    for (int i = n - 1; i >= 0; --i) {
        double s = y[i];
        for (int j = i + 1; j < n; ++j)
            s -= l_(j, i) * x[j];
        x[i] = s / l_(i, i);
    }
    return x;
}

MatX
CholeskyReference::solve(const MatX &b) const
{
    assert(ok_);
    MatX x(b.rows(), b.cols());
    for (int c = 0; c < b.cols(); ++c) {
        VecX col(b.rows());
        for (int r = 0; r < b.rows(); ++r)
            col[r] = b(r, c);
        VecX sol = solve(col);
        for (int r = 0; r < b.rows(); ++r)
            x(r, c) = sol[r];
    }
    return x;
}

// --- PartialPivLU ------------------------------------------------------

bool
PartialPivLU::compute(const MatX &a)
{
    assert(a.rows() == a.cols());
    const int n = a.rows();
    lu_.resizeNoInit(n, n); // fully overwritten by the copy below
    std::copy(a.data(), a.data() + static_cast<size_t>(n) * n,
              lu_.data());
    perm_.resize(n);
    for (int i = 0; i < n; ++i)
        perm_[i] = i;
    sign_ = 1;

    ok_ = true;
    for (int k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest magnitude in column k.
        int piv = k;
        double best = std::abs(lu_(k, k));
        for (int i = k + 1; i < n; ++i) {
            double v = std::abs(lu_(i, k));
            if (v > best) {
                best = v;
                piv = i;
            }
        }
        if (best < 1e-300 || !std::isfinite(best)) {
            ok_ = false;
            return false;
        }
        if (piv != k) {
            for (int c = 0; c < n; ++c)
                std::swap(lu_(k, c), lu_(piv, c));
            std::swap(perm_[k], perm_[piv]);
            sign_ = -sign_;
        }
        const double inv = 1.0 / lu_(k, k);
        const double *rowk = lu_.data() + static_cast<size_t>(k) * n;
        const int len = n - k - 1;
        const double *pivot = rowk + k + 1;
#if defined(EDX_HAVE_AVX2)
        // The pivot-row segment is streamed once per trailing row: copy
        // it to a 32B-aligned scratch so every one of those reads runs
        // on an aligned source (the blas.cpp packed-operand idiom).
        // Values are untouched and axpyRow is order-preserving, so the
        // update stays bit-exact vs the unpacked path at every tier.
        // Gated to the wide trailing blocks where the one-row copy is
        // amortized over many rows.
        static thread_local AlignedVector<double> pivot_pack;
        if (simdTierIsAvx2() && len >= 16) {
            pivot_pack.resize(static_cast<size_t>(len));
            std::memcpy(pivot_pack.data(), rowk + k + 1,
                        static_cast<size_t>(len) * sizeof(double));
            pivot = pivot_pack.data();
        }
#endif
        for (int i = k + 1; i < n; ++i) {
            double *rowi = lu_.data() + static_cast<size_t>(i) * n;
            const double m = rowi[k] * inv;
            rowi[k] = m;
            // Vectorized rank-1 trailing update; same per-element
            // order as the scalar seed loop (bit-exact).
            axpyRow(-m, pivot, rowi + k + 1, len);
        }
    }
    return true;
}

void
PartialPivLU::solveInto(const VecX &b, VecX &x) const
{
    assert(ok_);
    const int n = lu_.rows();
    assert(b.size() == n);
    x.resize(n);
    for (int i = 0; i < n; ++i)
        x[i] = b[perm_[i]];
    for (int i = 0; i < n; ++i) {
        const double *li = lu_.data() + static_cast<size_t>(i) * n;
        double s = x[i];
        for (int j = 0; j < i; ++j)
            s -= li[j] * x[j];
        x[i] = s;
    }
    for (int i = n - 1; i >= 0; --i) {
        const double *ui = lu_.data() + static_cast<size_t>(i) * n;
        double s = x[i];
        for (int j = i + 1; j < n; ++j)
            s -= ui[j] * x[j];
        x[i] = s / ui[i];
    }
}

VecX
PartialPivLU::solve(const VecX &b) const
{
    VecX x;
    solveInto(b, x);
    return x;
}

void
PartialPivLU::solveInto(const MatX &b, MatX &x) const
{
    assert(ok_);
    const int n = lu_.rows();
    assert(b.rows() == n);
    const int nc = b.cols();
    x.resizeNoInit(n, nc); // every row is written by the permutation
    for (int i = 0; i < n; ++i) {
        const double *src =
            b.data() + static_cast<size_t>(perm_[i]) * nc;
        std::copy(src, src + nc,
                  x.data() + static_cast<size_t>(i) * nc);
    }
    // Unit-lower forward then upper backward, row-oriented.
    for (int i = 0; i < n; ++i) {
        double *xi = x.data() + static_cast<size_t>(i) * nc;
        const double *li = lu_.data() + static_cast<size_t>(i) * n;
        for (int j = 0; j < i; ++j)
            axpyRow(-li[j], x.data() + static_cast<size_t>(j) * nc, xi,
                    nc);
    }
    for (int i = n - 1; i >= 0; --i) {
        double *xi = x.data() + static_cast<size_t>(i) * nc;
        const double *ui = lu_.data() + static_cast<size_t>(i) * n;
        for (int j = i + 1; j < n; ++j)
            axpyRow(-ui[j], x.data() + static_cast<size_t>(j) * nc, xi,
                    nc);
        divRow(ui[i], xi, nc);
    }
}

MatX
PartialPivLU::solve(const MatX &b) const
{
    MatX x;
    solveInto(b, x);
    return x;
}

MatX
PartialPivLU::inverse() const
{
    assert(ok_);
    return solve(MatX::identity(lu_.rows()));
}

double
PartialPivLU::determinant() const
{
    if (!ok_)
        return 0.0;
    double d = sign_;
    for (int i = 0; i < lu_.rows(); ++i)
        d *= lu_(i, i);
    return d;
}

// --- HouseholderQR (blocked, compact WY) -------------------------------

void
HouseholderQR::factorPanel(int p0, int p1)
{
    for (int k = p0; k < p1; ++k) {
        // Build the Householder vector for column k below the diagonal.
        double norm2 = 0.0;
        for (int i = k; i < m_; ++i)
            norm2 += qr_(i, k) * qr_(i, k);
        double alpha = std::sqrt(norm2);
        if (alpha < 1e-300) {
            beta_[k] = 0.0;
            continue;
        }
        if (qr_(k, k) > 0.0)
            alpha = -alpha;
        double v0 = qr_(k, k) - alpha;
        double vnorm2 = v0 * v0;
        for (int i = k + 1; i < m_; ++i)
            vnorm2 += qr_(i, k) * qr_(i, k);
        beta_[k] = (vnorm2 > 0.0) ? 2.0 / vnorm2 : 0.0;

        // Apply the reflector to the remaining columns of this panel
        // only; the trailing matrix is updated blockwise afterwards.
        for (int c = k + 1; c < p1; ++c) {
            double s = v0 * qr_(k, c);
            for (int i = k + 1; i < m_; ++i)
                s += qr_(i, k) * qr_(i, c);
            s *= beta_[k];
            qr_(k, c) -= s * v0;
            for (int i = k + 1; i < m_; ++i)
                qr_(i, c) -= s * qr_(i, k);
        }
        qr_(k, k) = alpha;
        // Store v (below diagonal) normalized by v0 so the implicit
        // head of the vector is exactly 1.
        if (v0 != 0.0) {
            for (int i = k + 1; i < m_; ++i)
                qr_(i, k) /= v0;
            beta_[k] *= v0 * v0;
        } else {
            for (int i = k + 1; i < m_; ++i)
                qr_(i, k) = 0.0;
        }
    }
}

void
HouseholderQR::applyPanelToTrailing(int p0, int p1)
{
    const int nb = p1 - p0;
    const int nt = n_ - p1;

    // Compact WY: H_{p0} ... H_{p1-1} = I - V T V^T with V unit lower
    // trapezoidal (stored below the diagonal of the panel columns) and
    // T upper triangular, built by the standard recurrence.
    t_.resize(nb, nb);
    z_.resize(nb);
    for (int c = 0; c < nb; ++c) {
        const int k = p0 + c;
        const double bk = beta_[k];
        if (bk == 0.0)
            continue; // identity reflector: zero column of T
        for (int cp = 0; cp < c; ++cp) {
            const int kp = p0 + cp;
            // z[cp] = v_{cp}^T v_c over rows [k, m) (v_c head == 1).
            double z = qr_(k, kp);
            for (int i = k + 1; i < m_; ++i)
                z += qr_(i, kp) * qr_(i, k);
            z_[cp] = z;
        }
        for (int r = 0; r < c; ++r) {
            double s = 0.0;
            for (int cp = r; cp < c; ++cp)
                s += t_(r, cp) * z_[cp];
            t_(r, c) = -bk * s;
        }
        t_(c, c) = bk;
    }

    // Q^T B = (I - V T^T V^T) B applied as three sweeps, each streaming
    // the trailing block row-contiguously exactly once.
    //
    // W's rows are the reused operand of all three sweeps (written nb
    // times, read nb^2/2 times, then read nb times per trailing row),
    // so on the AVX2 tier they live in a 32B-aligned scratch with the
    // stride padded up to the 4-double register width — the blas.cpp
    // re-stride idiom. Only addresses change: the sweeps are built
    // purely from the order-preserving axpyRow/scaleRow primitives over
    // the same values and lengths, so the factorization stays bit-exact
    // vs the member-workspace path (and the per-tier golden twins).
    double *w = w_.data();
    size_t wstride = static_cast<size_t>(nt);
#if defined(EDX_HAVE_AVX2)
    static thread_local AlignedVector<double> wpack;
    const bool packed = simdTierIsAvx2() && nt >= 16;
    if (packed) {
        wstride = static_cast<size_t>((nt + 3) & ~3);
        wpack.assign(static_cast<size_t>(nb) * wstride, 0.0);
        w = wpack.data();
    } else {
        w_.resize(nb, nt);
        w = w_.data();
    }
#else
    w_.resize(nb, nt);
    w = w_.data();
#endif
    for (int i = p0; i < m_; ++i) {
        const double *bi =
            qr_.data() + static_cast<size_t>(i) * n_ + p1;
        const int cmax = std::min(i - p0, nb - 1);
        for (int c = 0; c <= cmax; ++c) {
            const int k = p0 + c;
            const double v = (i == k) ? 1.0 : qr_(i, k);
            axpyRow(v, bi, w + static_cast<size_t>(c) * wstride, nt);
        }
    }
    // W <- T^T W in place (rows last-to-first).
    for (int c = nb - 1; c >= 0; --c) {
        double *wc = w + static_cast<size_t>(c) * wstride;
        scaleRow(t_(c, c), wc, nt);
        for (int cp = 0; cp < c; ++cp)
            axpyRow(t_(cp, c), w + static_cast<size_t>(cp) * wstride,
                    wc, nt);
    }
    // B <- B - V W.
    for (int i = p0; i < m_; ++i) {
        double *bi = qr_.data() + static_cast<size_t>(i) * n_ + p1;
        const int cmax = std::min(i - p0, nb - 1);
        for (int c = 0; c <= cmax; ++c) {
            const int k = p0 + c;
            const double v = (i == k) ? 1.0 : qr_(i, k);
            axpyRow(-v, w + static_cast<size_t>(c) * wstride, bi, nt);
        }
    }
}

void
HouseholderQR::compute(const MatX &a)
{
    m_ = a.rows();
    n_ = a.cols();
    assert(m_ >= n_);
    qr_.resizeNoInit(m_, n_); // fully overwritten by the copy below
    std::copy(a.data(), a.data() + static_cast<size_t>(m_) * n_,
              qr_.data());
    beta_.assign(static_cast<size_t>(n_), 0.0);
    r_valid_ = false;

    for (int p0 = 0; p0 < n_; p0 += kQrNb) {
        const int p1 = std::min(p0 + kQrNb, n_);
        factorPanel(p0, p1);
        if (p1 < n_)
            applyPanelToTrailing(p0, p1);
    }
}

void
HouseholderQR::applyHouseholder(VecX &b) const
{
    assert(b.size() == m_);
    for (int k = 0; k < n_; ++k) {
        if (beta_[k] == 0.0)
            continue;
        double s = b[k];
        for (int i = k + 1; i < m_; ++i)
            s += qr_(i, k) * b[i];
        s *= beta_[k];
        b[k] -= s;
        for (int i = k + 1; i < m_; ++i)
            b[i] -= s * qr_(i, k);
    }
}

void
HouseholderQR::qtbInPlace(VecX &b) const
{
    applyHouseholder(b);
}

VecX
HouseholderQR::qtb(const VecX &b) const
{
    VecX r = b;
    applyHouseholder(r);
    return r;
}

void
HouseholderQR::qtbInPlace(MatX &b) const
{
    assert(b.rows() == m_);
    const int nc = b.cols();
    // Row-oriented reflector application: two contiguous passes over
    // the rows of B per reflector, with one scratch row (w_ is free
    // after compute()).
    w_.resize(1, nc);
    double *s = w_.data();
    for (int k = 0; k < n_; ++k) {
        if (beta_[k] == 0.0)
            continue;
        const double *bk = b.data() + static_cast<size_t>(k) * nc;
        std::copy(bk, bk + nc, s);
        for (int i = k + 1; i < m_; ++i)
            axpyRow(qr_(i, k),
                    b.data() + static_cast<size_t>(i) * nc, s, nc);
        scaleRow(beta_[k], s, nc);
        axpyRow(-1.0, s, b.data() + static_cast<size_t>(k) * nc, nc);
        for (int i = k + 1; i < m_; ++i)
            axpyRow(-qr_(i, k), s,
                    b.data() + static_cast<size_t>(i) * nc, nc);
    }
}

MatX
HouseholderQR::qtb(const MatX &b) const
{
    MatX out = b;
    qtbInPlace(out);
    return out;
}

void
HouseholderQR::extractRInto(MatX &r_out) const
{
    r_out.resize(n_, n_);
    for (int i = 0; i < n_; ++i) {
        const double *src =
            qr_.data() + static_cast<size_t>(i) * n_ + i;
        double *dst = r_out.data() + static_cast<size_t>(i) * n_ + i;
        std::copy(src, src + (n_ - i), dst);
    }
}

const MatX &
HouseholderQR::matrixR() const
{
    if (!r_valid_) {
        extractRInto(r_);
        r_valid_ = true;
    }
    return r_;
}

void
HouseholderQR::solveUpperInto(const VecX &y, VecX &x) const
{
    assert(y.size() >= n_);
    x.resize(n_);
    for (int i = n_ - 1; i >= 0; --i) {
        const double *ri = qr_.data() + static_cast<size_t>(i) * n_;
        double s = y[i];
        for (int j = i + 1; j < n_; ++j)
            s -= ri[j] * x[j];
        x[i] = (std::abs(ri[i]) > 1e-300) ? s / ri[i] : 0.0;
    }
}

VecX
HouseholderQR::solve(const VecX &b) const
{
    VecX y = b;
    applyHouseholder(y);
    VecX x;
    solveUpperInto(y, x);
    return x;
}

int
HouseholderQR::rank(double tol) const
{
    int r = 0;
    for (int i = 0; i < n_; ++i) {
        if (std::abs(qr_(i, i)) > tol)
            ++r;
    }
    return r;
}

// --- HouseholderQRReference (retained seed algorithm) ------------------

void
HouseholderQRReference::compute(const MatX &a)
{
    qr_ = a;
    m_ = a.rows();
    n_ = a.cols();
    assert(m_ >= n_);
    beta_.assign(n_, 0.0);

    for (int k = 0; k < n_; ++k) {
        double norm2 = 0.0;
        for (int i = k; i < m_; ++i)
            norm2 += qr_(i, k) * qr_(i, k);
        double alpha = std::sqrt(norm2);
        if (alpha < 1e-300) {
            beta_[k] = 0.0;
            continue;
        }
        if (qr_(k, k) > 0.0)
            alpha = -alpha;
        double v0 = qr_(k, k) - alpha;
        double vnorm2 = v0 * v0;
        for (int i = k + 1; i < m_; ++i)
            vnorm2 += qr_(i, k) * qr_(i, k);
        beta_[k] = (vnorm2 > 0.0) ? 2.0 / vnorm2 : 0.0;

        for (int c = k + 1; c < n_; ++c) {
            double s = v0 * qr_(k, c);
            for (int i = k + 1; i < m_; ++i)
                s += qr_(i, k) * qr_(i, c);
            s *= beta_[k];
            qr_(k, c) -= s * v0;
            for (int i = k + 1; i < m_; ++i)
                qr_(i, c) -= s * qr_(i, k);
        }
        qr_(k, k) = alpha;
        if (v0 != 0.0) {
            for (int i = k + 1; i < m_; ++i)
                qr_(i, k) /= v0;
            beta_[k] *= v0 * v0;
        } else {
            for (int i = k + 1; i < m_; ++i)
                qr_(i, k) = 0.0;
        }
    }

    r_ = MatX(n_, n_);
    for (int i = 0; i < n_; ++i)
        for (int j = i; j < n_; ++j)
            r_(i, j) = qr_(i, j);
}

void
HouseholderQRReference::applyHouseholder(VecX &b) const
{
    assert(b.size() == m_);
    for (int k = 0; k < n_; ++k) {
        if (beta_[k] == 0.0)
            continue;
        double s = b[k];
        for (int i = k + 1; i < m_; ++i)
            s += qr_(i, k) * b[i];
        s *= beta_[k];
        b[k] -= s;
        for (int i = k + 1; i < m_; ++i)
            b[i] -= s * qr_(i, k);
    }
}

VecX
HouseholderQRReference::qtb(const VecX &b) const
{
    VecX r = b;
    applyHouseholder(r);
    return r;
}

VecX
HouseholderQRReference::solve(const VecX &b) const
{
    VecX y = qtb(b);
    VecX x(n_);
    for (int i = n_ - 1; i >= 0; --i) {
        double s = y[i];
        for (int j = i + 1; j < n_; ++j)
            s -= r_(i, j) * x[j];
        x[i] = (std::abs(r_(i, i)) > 1e-300) ? s / r_(i, i) : 0.0;
    }
    return x;
}

int
HouseholderQRReference::rank(double tol) const
{
    int r = 0;
    for (int i = 0; i < n_; ++i) {
        if (std::abs(r_(i, i)) > tol)
            ++r;
    }
    return r;
}

// --- Triangular solvers ------------------------------------------------

VecX
forwardSubstitute(const MatX &l, const VecX &b)
{
    assert(l.rows() == l.cols() && l.rows() == b.size());
    const int n = l.rows();
    VecX x(n);
    for (int i = 0; i < n; ++i) {
        double s = b[i];
        for (int j = 0; j < i; ++j)
            s -= l(i, j) * x[j];
        assert(std::abs(l(i, i)) > 0.0);
        x[i] = s / l(i, i);
    }
    return x;
}

void
forwardSubstituteInto(const MatX &l, const MatX &b, MatX &x)
{
    assert(l.rows() == l.cols() && l.rows() == b.rows());
    const int n = l.rows();
    const int nc = b.cols();
    x.resizeNoInit(n, nc); // fully overwritten by the copy below
    std::copy(b.data(), b.data() + static_cast<size_t>(n) * nc,
              x.data());
    for (int i = 0; i < n; ++i) {
        double *xi = x.data() + static_cast<size_t>(i) * nc;
        const double *li = l.data() + static_cast<size_t>(i) * n;
        for (int j = 0; j < i; ++j)
            axpyRow(-li[j], x.data() + static_cast<size_t>(j) * nc, xi,
                    nc);
        assert(std::abs(li[i]) > 0.0);
        divRow(li[i], xi, nc);
    }
}

MatX
forwardSubstitute(const MatX &l, const MatX &b)
{
    MatX x;
    forwardSubstituteInto(l, b, x);
    return x;
}

VecX
backwardSubstitute(const MatX &u, const VecX &b)
{
    assert(u.rows() == u.cols() && u.rows() == b.size());
    const int n = u.rows();
    VecX x(n);
    for (int i = n - 1; i >= 0; --i) {
        double s = b[i];
        for (int j = i + 1; j < n; ++j)
            s -= u(i, j) * x[j];
        assert(std::abs(u(i, i)) > 0.0);
        x[i] = s / u(i, i);
    }
    return x;
}

void
backwardSubstituteInto(const MatX &u, const MatX &b, MatX &x)
{
    assert(u.rows() == u.cols() && u.rows() == b.rows());
    const int n = u.rows();
    const int nc = b.cols();
    x.resizeNoInit(n, nc); // fully overwritten by the copy below
    std::copy(b.data(), b.data() + static_cast<size_t>(n) * nc,
              x.data());
    for (int i = n - 1; i >= 0; --i) {
        double *xi = x.data() + static_cast<size_t>(i) * nc;
        const double *ui = u.data() + static_cast<size_t>(i) * n;
        for (int j = i + 1; j < n; ++j)
            axpyRow(-ui[j], x.data() + static_cast<size_t>(j) * nc, xi,
                    nc);
        assert(std::abs(ui[i]) > 0.0);
        divRow(ui[i], xi, nc);
    }
}

MatX
backwardSubstitute(const MatX &u, const MatX &b)
{
    MatX x;
    backwardSubstituteInto(u, b, x);
    return x;
}

std::optional<MatX>
solveSpd(const MatX &a, const MatX &b)
{
    Cholesky chol(a);
    if (chol.ok())
        return chol.solve(b);
    PartialPivLU lu(a);
    if (lu.ok())
        return lu.solve(b);
    return std::nullopt;
}

std::optional<VecX>
solveSpd(const MatX &a, const VecX &b)
{
    Cholesky chol(a);
    if (chol.ok())
        return chol.solve(b);
    PartialPivLU lu(a);
    if (lu.ok())
        return lu.solve(b);
    return std::nullopt;
}

std::optional<MatX>
invertBlockDiagonalSymmetric(const MatX &m, int diag_n)
{
    assert(m.rows() == m.cols());
    const int n = m.rows();
    assert(diag_n >= 0 && diag_n <= n);
    const int dn = n - diag_n;

    // M = [A B; B^T D], A diagonal. Using the block inversion identity:
    //   S = D - B^T A^{-1} B            (Schur complement, dn x dn)
    //   M^{-1} = [A^{-1} + A^{-1} B S^{-1} B^T A^{-1},  -A^{-1} B S^{-1};
    //             -S^{-1} B^T A^{-1},                    S^{-1}]
    VecX ainv(diag_n);
    for (int i = 0; i < diag_n; ++i) {
        double d = m(i, i);
        if (std::abs(d) < 1e-300)
            return std::nullopt;
        ainv[i] = 1.0 / d;
    }

    MatX b(diag_n, dn);
    for (int i = 0; i < diag_n; ++i)
        for (int j = 0; j < dn; ++j)
            b(i, j) = m(i, diag_n + j);

    // AinvB = A^{-1} B (row scaling, exploiting the diagonal structure).
    MatX ainv_b = b;
    for (int i = 0; i < diag_n; ++i)
        for (int j = 0; j < dn; ++j)
            ainv_b(i, j) *= ainv[i];

    MatX d = m.block(diag_n, diag_n, dn, dn);
    MatX s = d;
    // S = D - B^T (A^{-1} B)
    for (int i = 0; i < dn; ++i)
        for (int j = 0; j < dn; ++j) {
            double acc = 0.0;
            for (int k = 0; k < diag_n; ++k)
                acc += b(k, i) * ainv_b(k, j);
            s(i, j) -= acc;
        }

    PartialPivLU lu(s);
    if (!lu.ok())
        return std::nullopt;
    MatX sinv = lu.inverse();

    MatX out(n, n);
    // Top-left: A^{-1} + (A^{-1}B) S^{-1} (A^{-1}B)^T
    MatX t = ainv_b * sinv; // diag_n x dn
    for (int i = 0; i < diag_n; ++i) {
        for (int j = 0; j < diag_n; ++j) {
            double acc = 0.0;
            for (int k = 0; k < dn; ++k)
                acc += t(i, k) * ainv_b(j, k);
            out(i, j) = acc;
        }
        out(i, i) += ainv[i];
    }
    // Top-right / bottom-left: -A^{-1} B S^{-1}
    for (int i = 0; i < diag_n; ++i)
        for (int j = 0; j < dn; ++j) {
            out(i, diag_n + j) = -t(i, j);
            out(diag_n + j, i) = -t(i, j);
        }
    // Bottom-right: S^{-1}
    out.setBlock(diag_n, diag_n, sinv);
    return out;
}

} // namespace edx
