/**
 * @file
 * Blocked, SSE2-vectorized dense kernels over MatX/VecX.
 *
 * These are the software realizations of the backend accelerator's
 * multiplication block (Tbl. I) and the substrate of the VIO/SLAM
 * backend hot path: projection/Jacobian products, H·P·Hᵀ formation,
 * the Kalman-gain solve right-hand sides, and the covariance downdate.
 *
 * Every optimized kernel writes into a caller-owned output buffer
 * (resized in place, so warm workspace buffers never allocate) and has
 * a retained scalar `*Reference` twin preserving the pre-overhaul loop
 * order — the same equivalence contract the frontend kernels follow:
 *
 *  - gemmInto is bit-exact with gemmReference: the vectorized j-lanes
 *    and the sequential k-accumulation keep every output element's
 *    floating-point operation order identical.
 *  - Dot-product-based kernels (multiplyTransposedInto, the symmetric
 *    products) use multiple accumulators, which reassociates the
 *    reduction; they are golden-tested against their references to a
 *    tight bound instead (see tests/test_math.cpp sweeps).
 *
 * Symmetric outputs (sandwich/downdate) compute the lower triangle
 * only and mirror it, halving the FLOPs *and* guaranteeing exact
 * symmetry of the result — the MSCKF covariance symmetrization is a
 * by-product of the kernel, not a fix-up pass.
 */
#pragma once

#include "math/matx.hpp"

namespace edx {

/** C = A · B (blocked, SSE2; bit-exact with gemmReference). */
void gemmInto(const MatX &a, const MatX &b, MatX &c);

/** Scalar i-k-j reference GEMM (the pre-overhaul operator*). */
void gemmReference(const MatX &a, const MatX &b, MatX &c);

/** y = A · x. */
void gemvInto(const MatX &a, const VecX &x, VecX &y);

/** C = A · Bᵀ without materializing the transpose (2x2 register tile). */
void multiplyTransposedInto(const MatX &a, const MatX &b, MatX &c);

/** Scalar reference of A · Bᵀ (the pre-overhaul multiplyTransposed). */
void multiplyTransposedReference(const MatX &a, const MatX &b, MatX &c);

/**
 * Symmetric sandwich S = H · P · Hᵀ for symmetric P.
 *
 * Stage 1 fills @p hp = H · P (the Kalman-gain solve RHS, reused by the
 * caller); stage 2 computes only the lower triangle of S = hp · Hᵀ and
 * mirrors it. This is the `H·P·Hᵀ`/`J·P·Jᵀ` rank-update kernel of the
 * backend accelerator's symmetric-S optimization (Sec. VI-A).
 */
void symmetricSandwichInto(const MatX &h, const MatX &p, MatX &hp,
                           MatX &s);

/** Scalar reference sandwich (explicit full products). */
void symmetricSandwichReference(const MatX &h, const MatX &p, MatX &hp,
                                MatX &s);

/**
 * Symmetric downdate C -= Aᵀ · B for A, B of identical shape with
 * Aᵀ·B symmetric (the covariance update P -= (H·P)ᵀ·Kᵀ). Accumulates
 * rank-1 outer products over the rows of A/B into the lower triangle
 * of C, then mirrors — C leaves exactly symmetric.
 */
void symmetricDowndateInto(const MatX &a, const MatX &b, MatX &c);

/** Scalar reference downdate: C -= Aᵀ · B, full square. */
void symmetricDowndateReference(const MatX &a, const MatX &b, MatX &c);

/** S = A · Aᵀ, lower triangle computed and mirrored (syrk). */
void syrkInto(const MatX &a, MatX &s);

} // namespace edx
