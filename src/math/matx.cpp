#include "math/matx.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "math/blas.hpp"

namespace edx {

VecX
VecX::operator+(const VecX &o) const
{
    assert(size() == o.size());
    VecX r(size());
    for (int i = 0; i < size(); ++i)
        r[i] = d_[i] + o.d_[i];
    return r;
}

VecX
VecX::operator-(const VecX &o) const
{
    assert(size() == o.size());
    VecX r(size());
    for (int i = 0; i < size(); ++i)
        r[i] = d_[i] - o.d_[i];
    return r;
}

VecX
VecX::operator*(double s) const
{
    VecX r(size());
    for (int i = 0; i < size(); ++i)
        r[i] = d_[i] * s;
    return r;
}

VecX &
VecX::operator+=(const VecX &o)
{
    assert(size() == o.size());
    for (int i = 0; i < size(); ++i)
        d_[i] += o.d_[i];
    return *this;
}

VecX &
VecX::operator-=(const VecX &o)
{
    assert(size() == o.size());
    for (int i = 0; i < size(); ++i)
        d_[i] -= o.d_[i];
    return *this;
}

double
VecX::dot(const VecX &o) const
{
    assert(size() == o.size());
    double s = 0.0;
    for (int i = 0; i < size(); ++i)
        s += d_[i] * o.d_[i];
    return s;
}

double
VecX::norm() const
{
    return std::sqrt(squaredNorm());
}

double
VecX::maxAbs() const
{
    double m = 0.0;
    for (double v : d_)
        m = std::max(m, std::abs(v));
    return m;
}

void
VecX::setSegment(int at, const VecX &v)
{
    assert(at >= 0 && at + v.size() <= size());
    for (int i = 0; i < v.size(); ++i)
        d_[at + i] = v[i];
}

VecX
VecX::segment(int at, int n) const
{
    assert(at >= 0 && n >= 0 && at + n <= size());
    VecX r(n);
    for (int i = 0; i < n; ++i)
        r[i] = d_[at + i];
    return r;
}

VecX
operator*(double s, const VecX &v)
{
    return v * s;
}

std::ostream &
operator<<(std::ostream &os, const VecX &v)
{
    os << "[";
    for (int i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    return os << "]";
}

MatX
MatX::identity(int n)
{
    MatX m(n, n);
    for (int i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

MatX
MatX::diagonal(const VecX &diag)
{
    MatX m(diag.size(), diag.size());
    for (int i = 0; i < diag.size(); ++i)
        m(i, i) = diag[i];
    return m;
}

MatX
MatX::operator+(const MatX &o) const
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    MatX r(rows_, cols_);
    for (size_t i = 0; i < d_.size(); ++i)
        r.d_[i] = d_[i] + o.d_[i];
    return r;
}

MatX
MatX::operator-(const MatX &o) const
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    MatX r(rows_, cols_);
    for (size_t i = 0; i < d_.size(); ++i)
        r.d_[i] = d_[i] - o.d_[i];
    return r;
}

MatX
MatX::operator*(double s) const
{
    MatX r(rows_, cols_);
    for (size_t i = 0; i < d_.size(); ++i)
        r.d_[i] = d_[i] * s;
    return r;
}

MatX
MatX::operator*(const MatX &o) const
{
    MatX r;
    gemmInto(*this, o, r);
    return r;
}

VecX
MatX::operator*(const VecX &v) const
{
    VecX r;
    gemvInto(*this, v, r);
    return r;
}

MatX &
MatX::operator+=(const MatX &o)
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (size_t i = 0; i < d_.size(); ++i)
        d_[i] += o.d_[i];
    return *this;
}

MatX &
MatX::operator-=(const MatX &o)
{
    assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (size_t i = 0; i < d_.size(); ++i)
        d_[i] -= o.d_[i];
    return *this;
}

MatX
MatX::transpose() const
{
    MatX r(cols_, rows_);
    for (int i = 0; i < rows_; ++i)
        for (int j = 0; j < cols_; ++j)
            r(j, i) = (*this)(i, j);
    return r;
}

double
MatX::norm() const
{
    double s = 0.0;
    for (double v : d_)
        s += v * v;
    return std::sqrt(s);
}

double
MatX::maxAbs() const
{
    double m = 0.0;
    for (double v : d_)
        m = std::max(m, std::abs(v));
    return m;
}

MatX
MatX::block(int r0, int c0, int nr, int nc) const
{
    assert(r0 >= 0 && c0 >= 0 && r0 + nr <= rows_ && c0 + nc <= cols_);
    MatX b(nr, nc);
    for (int r = 0; r < nr; ++r)
        for (int c = 0; c < nc; ++c)
            b(r, c) = (*this)(r0 + r, c0 + c);
    return b;
}

void
MatX::setBlock(int r0, int c0, const MatX &b)
{
    assert(r0 >= 0 && c0 >= 0 &&
           r0 + b.rows() <= rows_ && c0 + b.cols() <= cols_);
    for (int r = 0; r < b.rows(); ++r)
        for (int c = 0; c < b.cols(); ++c)
            (*this)(r0 + r, c0 + c) = b(r, c);
}

void
MatX::resize(int r, int c)
{
    assert(r >= 0 && c >= 0);
    rows_ = r;
    cols_ = c;
    d_.assign(static_cast<size_t>(r) * c, 0.0);
}

void
MatX::resizeNoInit(int r, int c)
{
    assert(r >= 0 && c >= 0);
    rows_ = r;
    cols_ = c;
    d_.resize(static_cast<size_t>(r) * c);
}

void
MatX::setZero()
{
    std::fill(d_.begin(), d_.end(), 0.0);
}

void
MatX::conservativeResize(int r, int c)
{
    assert(r >= 0 && c >= 0);
    const int cr = std::min(r, rows_);
    const int cc = std::min(c, cols_);
    const size_t nsize = static_cast<size_t>(r) * c;

    if (c == cols_) {
        // Row count change only: the layout is already correct.
        d_.resize(nsize, 0.0);
    } else if (c > cols_) {
        // Wider rows: grow the buffer, then repack from the last row
        // backwards so a row never overwrites an unread one.
        d_.resize(nsize, 0.0);
        for (int i = cr - 1; i >= 0; --i) {
            double *dst = d_.data() + static_cast<size_t>(i) * c;
            const double *src = d_.data() + static_cast<size_t>(i) * cols_;
            if (i > 0)
                std::memmove(dst, src, sizeof(double) * cc);
            std::fill(dst + cc, dst + c, 0.0);
        }
    } else {
        // Narrower rows: repack forward, then shrink.
        for (int i = 1; i < cr; ++i) {
            double *dst = d_.data() + static_cast<size_t>(i) * c;
            const double *src = d_.data() + static_cast<size_t>(i) * cols_;
            std::memmove(dst, src, sizeof(double) * cc);
        }
        d_.resize(nsize, 0.0);
        // Narrow-but-taller: offsets of rows [cr, r) may hold stale
        // old-layout data that vector::resize did not touch.
        if (r > cr)
            std::fill(d_.begin() + static_cast<size_t>(cr) * c, d_.end(),
                      0.0);
    }
    rows_ = r;
    cols_ = c;
}

void
MatX::removeRowsAndCols(int at, int n)
{
    assert(rows_ == cols_);
    assert(at >= 0 && n >= 0 && at + n <= rows_);
    if (n == 0)
        return;
    const int nn = rows_ - n;
    // Compact in place: row r of the result is old row (r < at ? r :
    // r + n) with columns [at, at+n) dropped. Walking forward is safe
    // because every destination offset precedes its source offset.
    for (int r = 0; r < nn; ++r) {
        const int src_r = r < at ? r : r + n;
        const double *src = d_.data() + static_cast<size_t>(src_r) * cols_;
        double *dst = d_.data() + static_cast<size_t>(r) * nn;
        std::memmove(dst, src, sizeof(double) * at);
        std::memmove(dst + at, src + at + n,
                     sizeof(double) * (nn - at));
    }
    rows_ = nn;
    cols_ = nn;
    d_.resize(static_cast<size_t>(nn) * nn);
}

void
MatX::mirrorLowerToUpper()
{
    assert(rows_ == cols_);
    for (int i = 0; i < rows_; ++i)
        for (int j = i + 1; j < cols_; ++j)
            (*this)(i, j) = (*this)(j, i);
}

MatX
operator*(double s, const MatX &m)
{
    return m * s;
}

std::ostream &
operator<<(std::ostream &os, const MatX &m)
{
    for (int r = 0; r < m.rows(); ++r) {
        os << (r ? "\n[" : "[");
        for (int c = 0; c < m.cols(); ++c)
            os << (c ? ", " : "") << m(r, c);
        os << "]";
    }
    return os;
}

MatX
gram(const MatX &a)
{
    MatX g(a.cols(), a.cols());
    for (int k = 0; k < a.rows(); ++k) {
        const double *row = a.data() + static_cast<size_t>(k) * a.cols();
        for (int i = 0; i < a.cols(); ++i) {
            double v = row[i];
            if (v == 0.0)
                continue;
            for (int j = i; j < a.cols(); ++j)
                g(i, j) += v * row[j];
        }
    }
    for (int i = 0; i < a.cols(); ++i)
        for (int j = 0; j < i; ++j)
            g(i, j) = g(j, i);
    return g;
}

MatX
multiplyTransposed(const MatX &a, const MatX &b)
{
    MatX r;
    multiplyTransposedInto(a, b, r);
    return r;
}

} // namespace edx
