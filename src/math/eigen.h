// Symmetric eigensolver (Householder tridiagonalization + implicit-shift QL)
// used by kernel CCA.

#ifndef CONTENDER_MATH_EIGEN_H_
#define CONTENDER_MATH_EIGEN_H_

#include <cstddef>

#include "math/matrix.h"
#include "util/statusor.h"

namespace contender {

/// Result of an eigendecomposition: A = V diag(values) Vᵀ.
/// Eigenpairs are sorted by descending eigenvalue; eigenvectors are the
/// columns of `vectors`.
struct EigenDecomposition {
  Vector values;
  Matrix vectors;
};

/// Eigendecomposition of a symmetric matrix: Householder reduction to
/// tridiagonal form, then implicit-shift QL (the EISPACK tred2/tql2 pair).
/// `a` must be square, finite and (numerically) symmetric; otherwise
/// InvalidArgument. Internal if QL fails to converge.
StatusOr<EigenDecomposition> SymmetricEigen(const Matrix& a);

/// Solves the generalized symmetric eigenproblem A v = λ B v with B SPD,
/// by the Cholesky reduction B = L Lᵀ, C = L⁻¹ A L⁻ᵀ, C w = λ w, v = L⁻ᵀ w.
/// Both inputs must be finite.
StatusOr<EigenDecomposition> GeneralizedSymmetricEigen(const Matrix& a,
                                                       const Matrix& b);

}  // namespace contender

#endif  // CONTENDER_MATH_EIGEN_H_
