/// \file blas.hpp
/// BLAS-3-style kernels on views: blocked GEMM and the four TRSM variants
/// used by blocked/distributed LU.
///
/// Two implementations of each kernel:
///  - reference: the original clarity-first single-threaded loops, kept as
///    the ground truth for testing;
///  - optimized: cache-blocked, packed, register-tiled kernels that run the
///    macro loops on the shared thread pool (src/support/thread_pool.hpp).
///    TRSM is blocked so its bulk flops run through the optimized GEMM.
///
/// The public entry points (`gemm`, `trsm_left`, `trsm_right`) run the
/// optimized kernels; the `*_reference` kernels are the oracle the tests
/// pin them against.
#pragma once

#include "linalg/matrix.hpp"

namespace conflux::linalg {

/// C := alpha * A * B + beta * C.
/// Shapes: A is m x k, B is k x n, C is m x n.
void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c);

/// C := C - A * B — the Schur-complement update used by every LU variant.
void schur_update(MatrixView c, ConstMatrixView a, ConstMatrixView b);

/// Triangle selector for TRSM.
enum class Triangle { Lower, Upper };
/// Unit-diagonal selector for TRSM.
enum class Diag { Unit, NonUnit };

/// Solve op(L/U) * X = B in place (X overwrites B), with the triangular
/// matrix applied from the left. `tri` is `a`'s triangle; entries of `a`
/// outside the triangle are ignored.
/// Shapes: a is m x m, b is m x n.
void trsm_left(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b);

/// Solve X * op(L/U) = B in place (X overwrites B), triangular matrix applied
/// from the right. Shapes: a is n x n, b is m x n.
void trsm_right(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b);

/// The reference kernels — the test suite pins the optimized path against
/// these.
void gemm_reference(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c);
void trsm_left_reference(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b);
void trsm_right_reference(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b);

/// The optimized kernels, likewise directly callable (benchmarks).
void gemm_optimized(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c);
void trsm_left_optimized(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b);
void trsm_right_optimized(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b);

}  // namespace conflux::linalg
