/**
 * @file
 * Dynamically sized dense matrix and vector types.
 *
 * These back the large linear-algebra workloads of the localization
 * backend: MSCKF covariance propagation and Kalman-gain computation,
 * bundle-adjustment normal equations, and marginalization. Storage is
 * row-major, owned, and contiguous; the blocked access helpers mirror the
 * block-oriented execution model of the backend accelerator (Sec. VI of
 * the paper).
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <ostream>
#include <vector>

#include "math/aligned_alloc.hpp"
#include "math/mat.hpp"
#include "math/vec.hpp"

namespace edx {

class MatX;

/** Dynamically sized column vector of doubles. */
class VecX
{
  public:
    VecX() = default;

    /** Creates a zero vector of dimension @p n. */
    explicit VecX(int n) : d_(static_cast<size_t>(n), 0.0) {}

    /** Creates a vector of dimension @p n filled with @p value. */
    VecX(int n, double value) : d_(static_cast<size_t>(n), value) {}

    /** Wraps an existing buffer by copy. */
    explicit VecX(const std::vector<double> &values)
        : d_(values.begin(), values.end())
    {
    }

    /** Converts from a fixed-size vector. */
    template <int N>
    explicit VecX(const Vec<N> &v) : d_(N)
    {
        for (int i = 0; i < N; ++i)
            d_[i] = v[i];
    }

    int size() const { return static_cast<int>(d_.size()); }

    /** Reserves capacity for @p n elements (no size change). */
    void reserve(int n) { d_.reserve(static_cast<size_t>(n)); }

    /**
     * Resizes to @p n elements, zero-filled. Reuses the existing
     * capacity: once a workspace vector has reached its steady-state
     * size this performs no heap allocation.
     */
    void resize(int n) { d_.assign(static_cast<size_t>(n), 0.0); }

    /**
     * Resizes to @p n elements preserving the existing prefix
     * (zero-fills growth); never shrinks capacity.
     */
    void conservativeResize(int n)
    {
        d_.resize(static_cast<size_t>(n), 0.0);
    }

    /** Capacity in bytes (workspace accounting). */
    size_t capacityBytes() const { return d_.capacity() * sizeof(double); }

    double &
    operator[](int i)
    {
        assert(i >= 0 && i < size());
        return d_[i];
    }

    double
    operator[](int i) const
    {
        assert(i >= 0 && i < size());
        return d_[i];
    }

    VecX operator+(const VecX &o) const;
    VecX operator-(const VecX &o) const;
    VecX operator*(double s) const;
    VecX &operator+=(const VecX &o);
    VecX &operator-=(const VecX &o);

    /** Inner product. */
    double dot(const VecX &o) const;

    double squaredNorm() const { return dot(*this); }
    double norm() const;

    /** Largest absolute element (0 for empty vectors). */
    double maxAbs() const;

    /** Copies @p v into elements [at, at+v.size()). */
    void setSegment(int at, const VecX &v);

    /** Extracts elements [at, at+n) as a new vector. */
    VecX segment(int at, int n) const;

    /** Extracts a fixed-size segment starting at @p at. */
    template <int N>
    Vec<N>
    fixedSegment(int at) const
    {
        assert(at >= 0 && at + N <= size());
        Vec<N> r;
        for (int i = 0; i < N; ++i)
            r[i] = d_[at + i];
        return r;
    }

    /** Copies a fixed-size vector into elements [at, at+N). */
    template <int N>
    void
    setFixedSegment(int at, const Vec<N> &v)
    {
        assert(at >= 0 && at + N <= size());
        for (int i = 0; i < N; ++i)
            d_[at + i] = v[i];
    }

    const double *data() const { return d_.data(); }
    double *data() { return d_.data(); }

  private:
    AlignedVector<double> d_; //!< 32-byte-aligned for the wide tiers
};

VecX operator*(double s, const VecX &v);
std::ostream &operator<<(std::ostream &os, const VecX &v);

/** Dynamically sized row-major dense matrix of doubles. */
class MatX
{
  public:
    MatX() = default;

    /** Creates a zero matrix of shape @p r x @p c. */
    MatX(int r, int c)
        : rows_(r), cols_(c), d_(static_cast<size_t>(r) * c, 0.0)
    {
        assert(r >= 0 && c >= 0);
    }

    /** Converts from a fixed-size matrix. */
    template <int R, int C>
    explicit MatX(const Mat<R, C> &m) : MatX(R, C)
    {
        for (int r = 0; r < R; ++r)
            for (int c = 0; c < C; ++c)
                (*this)(r, c) = m(r, c);
    }

    /** Returns the n x n identity. */
    static MatX identity(int n);

    /** Returns a square diagonal matrix from @p diag. */
    static MatX diagonal(const VecX &diag);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    double &
    operator()(int r, int c)
    {
        assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
        return d_[static_cast<size_t>(r) * cols_ + c];
    }

    double
    operator()(int r, int c) const
    {
        assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
        return d_[static_cast<size_t>(r) * cols_ + c];
    }

    MatX operator+(const MatX &o) const;
    MatX operator-(const MatX &o) const;
    MatX operator*(double s) const;
    MatX operator*(const MatX &o) const;
    VecX operator*(const VecX &v) const;
    MatX &operator+=(const MatX &o);
    MatX &operator-=(const MatX &o);

    MatX transpose() const;

    /** Frobenius norm. */
    double norm() const;

    /** Largest absolute element (0 for empty matrices). */
    double maxAbs() const;

    /** Extracts the sub-matrix [r0, r0+nr) x [c0, c0+nc). */
    MatX block(int r0, int c0, int nr, int nc) const;

    /** Overwrites the sub-matrix at (r0, c0) with @p b. */
    void setBlock(int r0, int c0, const MatX &b);

    /** Overwrites the sub-matrix at (r0, c0) with a fixed-size matrix. */
    template <int R, int C>
    void
    setFixedBlock(int r0, int c0, const Mat<R, C> &b)
    {
        assert(r0 + R <= rows_ && c0 + C <= cols_);
        for (int r = 0; r < R; ++r)
            for (int c = 0; c < C; ++c)
                (*this)(r0 + r, c0 + c) = b(r, c);
    }

    /** Extracts a fixed-size block at (r0, c0). */
    template <int R, int C>
    Mat<R, C>
    fixedBlock(int r0, int c0) const
    {
        assert(r0 + R <= rows_ && c0 + C <= cols_);
        Mat<R, C> b;
        for (int r = 0; r < R; ++r)
            for (int c = 0; c < C; ++c)
                b(r, c) = (*this)(r0 + r, c0 + c);
        return b;
    }

    /** Reserves capacity for an r x c matrix (no shape change). */
    void reserve(int r, int c)
    {
        d_.reserve(static_cast<size_t>(r) * c);
    }

    /**
     * Resizes to r x c and zero-fills. Reuses the existing capacity, so
     * a warm workspace matrix resizes without heap allocation.
     */
    void resize(int r, int c);

    /**
     * Resizes to r x c WITHOUT clearing retained storage — existing
     * elements keep whatever values the previous shape left there
     * (growth beyond the old element count is still zero-initialized
     * by the underlying vector). Only for callers that overwrite
     * every element before reading (e.g. factorization input copies);
     * skips the O(r*c) zero pass `resize` pays on every warm call.
     */
    void resizeNoInit(int r, int c);

    /** Zero-fills without changing the shape. */
    void setZero();

    /**
     * Resizes to r x c, preserving the overlapping top-left content.
     *
     * Performed in place by repacking rows within the existing buffer;
     * allocates only when the new extent exceeds the current capacity,
     * so the steady-state MSCKF augment/marginalize cycle is
     * allocation-free.
     */
    void conservativeResize(int r, int c);

    /**
     * Removes the square band of rows and columns [at, at+n), shifting
     * the trailing rows/columns up-left in place (the MSCKF clone
     * marginalization drop). Requires a square matrix.
     */
    void removeRowsAndCols(int at, int n);

    /**
     * Copies the lower triangle onto the upper one (exact symmetry
     * from a triangle-only kernel; square matrices only).
     */
    void mirrorLowerToUpper();

    /** Capacity in bytes (workspace accounting). */
    size_t capacityBytes() const { return d_.capacity() * sizeof(double); }

    const double *data() const { return d_.data(); }
    double *data() { return d_.data(); }

  private:
    int rows_ = 0;
    int cols_ = 0;
    AlignedVector<double> d_; //!< 32-byte-aligned for the wide tiers
};

MatX operator*(double s, const MatX &m);
std::ostream &operator<<(std::ostream &os, const MatX &m);

/** Computes A^T * A without forming the transpose explicitly. */
MatX gram(const MatX &a);

/** Computes A * B^T without forming the transpose explicitly. */
MatX multiplyTransposed(const MatX &a, const MatX &b);

} // namespace edx
