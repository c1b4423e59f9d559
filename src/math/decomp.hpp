/**
 * @file
 * Matrix decompositions and triangular solvers.
 *
 * These routines are the software realizations of the five backend
 * accelerator building blocks of the paper (Tbl. I): multiplication
 * (blas.hpp), decomposition, inverse, transpose, and forward/backward
 * substitution. The Kalman-gain and marginalization kernels call
 * directly into them, so the kernel-to-primitive decomposition the
 * paper reports is literal in this codebase.
 *
 * Since the backend linear-algebra overhaul the solvers follow the
 * frontend's optimization contract:
 *
 *  - Every class has a default constructor plus a `compute()` that
 *    reuses its internal storage, so a workspace-owned solver performs
 *    no heap allocation once warm.
 *  - Cholesky and HouseholderQR factor in cache-blocked panels with
 *    SSE2 row primitives; CholeskyReference and HouseholderQRReference
 *    retain the scalar seed algorithms and are golden-tested against
 *    the blocked versions over the MSCKF-realistic size grid
 *    (tests/test_math.cpp). PartialPivLU's vectorized trailing update
 *    is order-preserving and therefore bit-exact with the seed.
 *  - Multi-right-hand-side solves run row-oriented and in place
 *    (`solveInto` / `solveInPlace`): no per-column VecX temporaries,
 *    no transposes.
 */
#pragma once

#include <optional>

#include "math/matx.hpp"

namespace edx {

/**
 * Cholesky factorization A = L * L^T of a symmetric positive-definite
 * matrix (cache-blocked left-looking panels).
 */
class Cholesky
{
  public:
    Cholesky() = default;

    /** Convenience: factorizes @p a on construction. */
    explicit Cholesky(const MatX &a) { compute(a); }

    /**
     * Factorizes @p a, reusing internal storage. On failure (non-SPD
     * input) returns false, ok() returns false, and the solver must
     * not be used.
     */
    bool compute(const MatX &a);

    /** @return true when the factorization succeeded. */
    bool ok() const { return ok_; }

    /** Lower-triangular factor L. */
    const MatX &matrixL() const { return l_; }

    /** Solves A x = b via forward then backward substitution. */
    VecX solve(const VecX &b) const;

    /** Solves A X = B (row-oriented, single pass). */
    MatX solve(const MatX &b) const;

    /** In-place vector solve: b <- A^{-1} b. */
    void solveInPlace(VecX &b) const;

    /**
     * In-place multi-RHS solve: B <- A^{-1} B, row-oriented with no
     * temporaries (the Kalman-gain K^T solve path).
     */
    void solveInPlace(MatX &b) const;

    /** log(det(A)) = 2 * sum(log(diag(L))); requires ok(). */
    double logDeterminant() const;

    /** Internal storage capacity (workspace accounting). */
    size_t capacityBytes() const { return l_.capacityBytes(); }

  private:
    MatX l_;
    bool ok_ = false;
};

/**
 * Retained scalar Cholesky (the seed algorithm): the `*Reference` twin
 * of the blocked Cholesky under the backend equivalence contract.
 */
class CholeskyReference
{
  public:
    CholeskyReference() = default;
    explicit CholeskyReference(const MatX &a) { compute(a); }

    bool compute(const MatX &a);
    bool ok() const { return ok_; }
    const MatX &matrixL() const { return l_; }
    VecX solve(const VecX &b) const;
    MatX solve(const MatX &b) const; //!< column-by-column (seed path)

  private:
    MatX l_;
    bool ok_ = false;
};

/**
 * LU factorization with partial pivoting, P * A = L * U.
 *
 * Used for general (possibly indefinite) square systems and for matrix
 * inversion. The vectorized trailing update preserves the scalar
 * operation order (bit-exact with the seed implementation).
 */
class PartialPivLU
{
  public:
    PartialPivLU() = default;
    explicit PartialPivLU(const MatX &a) { compute(a); }

    /** Factorizes @p a, reusing internal storage. */
    bool compute(const MatX &a);

    /** @return true when A was non-singular to working precision. */
    bool ok() const { return ok_; }

    /** Solves A x = b. */
    VecX solve(const VecX &b) const;

    /** Solves A X = B. */
    MatX solve(const MatX &b) const;

    /** Solves A x = b into @p x (no temporaries). */
    void solveInto(const VecX &b, VecX &x) const;

    /** Solves A X = B into @p x, row-oriented (no temporaries). */
    void solveInto(const MatX &b, MatX &x) const;

    /** Computes A^{-1}. */
    MatX inverse() const;

    /** Determinant of A. */
    double determinant() const;

    /** Internal storage capacity (workspace accounting). */
    size_t
    capacityBytes() const
    {
        return lu_.capacityBytes() + perm_.capacity() * sizeof(int);
    }

  private:
    MatX lu_;               //!< packed L (unit diagonal) and U
    std::vector<int> perm_; //!< row permutation
    int sign_ = 1;
    bool ok_ = false;
};

/**
 * Householder QR factorization A = Q * R (A is m x n with m >= n),
 * cache-blocked with the compact-WY representation: panels of
 * reflectors are applied to the trailing matrix as two matrix products
 * instead of one rank-1 update per reflector.
 *
 * The MSCKF measurement-compression step (the "QR" slice of the VIO
 * latency breakdown, Fig. 7) uses this class.
 */
class HouseholderQR
{
  public:
    HouseholderQR() = default;
    explicit HouseholderQR(const MatX &a) { compute(a); }

    /** Factorizes @p a, reusing internal storage. */
    void compute(const MatX &a);

    /**
     * The upper-triangular factor R (n x n, thin form). Materialized
     * lazily on first call — the hot paths use extractRInto() /
     * solveUpperInto() against the packed factorization and never pay
     * this copy.
     */
    const MatX &matrixR() const;

    /** Writes R (n x n, zero lower triangle) into @p r_out. */
    void extractRInto(MatX &r_out) const;

    /** Computes Q^T * b (length m in, length m out). */
    VecX qtb(const VecX &b) const;

    /** Computes Q^T * B applied to each column. */
    MatX qtb(const MatX &b) const;

    /** In-place Q^T application: b <- Q^T b (no temporaries). */
    void qtbInPlace(VecX &b) const;

    /**
     * In-place Q^T application on a matrix, row-oriented: two passes
     * per reflector over the rows of @p b (no column temporaries).
     */
    void qtbInPlace(MatX &b) const;

    /** Solves the least-squares problem min ||A x - b||. */
    VecX solve(const VecX &b) const;

    /**
     * Back-substitutes R x = y for the top n rows of @p y into @p x
     * directly from the packed factorization (no matrixR() copy).
     * Singular diagonal entries yield zero components (minimum-norm
     * convention of the seed solver).
     */
    void solveUpperInto(const VecX &y, VecX &x) const;

    /** Numerical rank of R with tolerance @p tol on the diagonal. */
    int rank(double tol = 1e-10) const;

    /** Internal storage capacity (workspace accounting). */
    size_t
    capacityBytes() const
    {
        return qr_.capacityBytes() + t_.capacityBytes() +
               z_.capacityBytes() + w_.capacityBytes() +
               r_.capacityBytes() + beta_.capacity() * sizeof(double);
    }

  private:
    void factorPanel(int p0, int p1);
    void applyPanelToTrailing(int p0, int p1);
    void applyHouseholder(VecX &b) const;

    MatX qr_;                  //!< packed Householder vectors + R
    std::vector<double> beta_;
    MatX t_;                   //!< compact-WY T of the current panel
    VecX z_;                   //!< V^T v scratch of the T recurrence
    mutable MatX w_;           //!< V^T B scratch (reused by qtbInPlace)
    mutable MatX r_;           //!< lazily materialized thin R
    mutable bool r_valid_ = false;
    int m_ = 0, n_ = 0;
};

/**
 * Retained scalar Householder QR (the seed algorithm): the
 * `*Reference` twin of the blocked HouseholderQR.
 */
class HouseholderQRReference
{
  public:
    HouseholderQRReference() = default;
    explicit HouseholderQRReference(const MatX &a) { compute(a); }

    void compute(const MatX &a);
    const MatX &matrixR() const { return r_; }
    VecX qtb(const VecX &b) const;
    VecX solve(const VecX &b) const;
    int rank(double tol = 1e-10) const;

  private:
    void applyHouseholder(VecX &b) const;

    MatX qr_;
    std::vector<double> beta_;
    MatX r_;
    int m_ = 0, n_ = 0;
};

/**
 * Solves L x = b by forward substitution (L lower-triangular,
 * taken from the lower triangle of @p l including its diagonal).
 */
VecX forwardSubstitute(const MatX &l, const VecX &b);

/** Solves L X = B by forward substitution (row-oriented). */
MatX forwardSubstitute(const MatX &l, const MatX &b);

/** Row-oriented forward substitution into @p x (no temporaries). */
void forwardSubstituteInto(const MatX &l, const MatX &b, MatX &x);

/** Solves U x = b by backward substitution (U upper-triangular). */
VecX backwardSubstitute(const MatX &u, const VecX &b);

/** Solves U X = B by backward substitution (row-oriented). */
MatX backwardSubstitute(const MatX &u, const MatX &b);

/** Row-oriented backward substitution into @p x (no temporaries). */
void backwardSubstituteInto(const MatX &u, const MatX &b, MatX &x);

/**
 * Solves the SPD system A X = B via Cholesky; falls back to LU when the
 * Cholesky factorization fails (e.g., A only positive semi-definite due
 * to round-off). Returns std::nullopt when the system is singular.
 */
std::optional<MatX> solveSpd(const MatX &a, const MatX &b);

/** Vector right-hand-side overload of solveSpd. */
std::optional<VecX> solveSpd(const MatX &a, const VecX &b);

/**
 * Inverse of a symmetric matrix with the marginalization block structure
 * [A B; B^T D] where A is diagonal (landmark part) and D is the small
 * dense pose part, computed via the Schur complement of A.
 *
 * This mirrors the specialized inversion hardware of Sec. VI-A ("the
 * inversion hardware is specialized for a 6x6 matrix inversion combined
 * with simple reciprocal structures"). @p diag_n is the size of the
 * diagonal part A.
 */
std::optional<MatX> invertBlockDiagonalSymmetric(const MatX &m, int diag_n);

} // namespace edx
