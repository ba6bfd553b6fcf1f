#include "math/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

namespace contender {
namespace {

// EISPACK's tql2 limit per eigenvalue; QL takes two or three in practice.
constexpr int kMaxQlIterations = 30;

bool AllFinite(const Matrix& m) {
  for (double x : m.data()) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Householder reduction of the symmetric matrix in `w` to tridiagonal form
// (tred2, Bowdler, Martin, Reinsch & Wilkinson). On return d holds the
// diagonal, e[1..n-1] the subdiagonal and e[0] = 0. In the textbook, V
// starts as A and ends as the orthogonal Q with A = Q T Qᵀ. Here `w` holds
// Vᵀ throughout: w(j, k) is V[k][j]. A is symmetric, so the copy starts
// right either way, every O(n³) loop walks a row of w, and eigenvector i
// ends up as row i. Requires n >= 1.
void Tridiagonalize(Matrix& w, Vector& d, Vector& e) {
  const size_t n = w.rows();
  for (size_t j = 0; j < n; ++j) d[j] = w(j, n - 1);

  for (size_t i = n - 1; i > 0; --i) {
    // Scale to avoid under/overflow.
    double scale = 0.0;
    double h = 0.0;
    for (size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (size_t j = 0; j < i; ++j) {
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
        w(i, j) = 0.0;
      }
    } else {
      // Generate the Householder vector.
      for (size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (size_t j = 0; j < i; ++j) e[j] = 0.0;

      // Apply the similarity transformation to the remaining columns.
      for (size_t j = 0; j < i; ++j) {
        f = d[j];
        w(i, j) = f;
        const double* wj = &w(j, 0);
        g = e[j] + wj[j] * f;
        for (size_t k = j + 1; k < i; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        double* wj = &w(j, 0);
        for (size_t k = j; k < i; ++k) wj[k] -= (f * e[k] + g * d[k]);
        d[j] = wj[i - 1];
        wj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the transformations.
  for (size_t i = 0; i + 1 < n; ++i) {
    w(i, n - 1) = w(i, i);
    w(i, i) = 1.0;
    const double h = d[i + 1];
    double* wi1 = &w(i + 1, 0);
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) d[k] = wi1[k] / h;
      for (size_t j = 0; j <= i; ++j) {
        double* wj = &w(j, 0);
        double g = 0.0;
        for (size_t k = 0; k <= i; ++k) g += wi1[k] * wj[k];
        for (size_t k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    for (size_t k = 0; k <= i; ++k) wi1[k] = 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    d[j] = w(j, n - 1);
    w(j, n - 1) = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL on the tridiagonal (d, e) from Tridiagonalize (tql2).
// Leaves the eigenvalues in d, unsorted, and rotates row i of `w` into the
// eigenvector of d[i].
Status DiagonalizeTridiagonal(Matrix& w, Vector& d, Vector& e) {
  const size_t n = w.rows();
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::ldexp(1.0, -52);
  for (size_t l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element; e[n - 1] = 0 ends the search.
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    size_t m = l;
    while (m + 1 < n && std::fabs(e[m]) > eps * tst1) ++m;

    // If m == l, d[l] is already an eigenvalue; otherwise iterate.
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > kMaxQlIterations) {
          return Status::Internal("SymmetricEigen: QL did not converge");
        }
        // Compute the implicit shift.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Implicit QL transformation.
        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);

          // Accumulate the rotation into eigenvectors i and i + 1.
          double* wi = &w(i, 0);
          double* wi1 = &w(i + 1, 0);
          for (size_t k = 0; k < n; ++k) {
            const double t = wi1[k];
            wi1[k] = s * wi[k] + c * t;
            wi[k] = c * wi[k] - s * t;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
    if (!std::isfinite(d[l])) {
      return Status::Internal("SymmetricEigen: QL did not converge");
    }
  }
  return Status::OK();
}

const double* Row(const Matrix& m, size_t r) {
  return m.data().data() + r * m.cols();
}

// C = L⁻¹ A L⁻ᵀ given linv = L⁻¹, as (L⁻¹A)·L⁻ᵀ with
// c(i, j) = Σ_{k<=j} t(i, k)·L⁻¹(j, k): the terms Matrix::Multiply would
// add, in its order from 0.0, less the zeros of the triangle. So C is
// bit-identical to linv.Multiply(a).Multiply(linv.Transpose()) without
// building L⁻ᵀ.
Matrix ReduceToStandard(const Matrix& linv, const Matrix& a) {
  const size_t n = linv.rows();
  const Matrix t = linv.Multiply(a);
  Matrix c(n, n);
  for (size_t i = 0; i < n; ++i) {
    const double* ti = Row(t, i);
    for (size_t j = 0; j < n; ++j) {
      const double* lj = Row(linv, j);
      double s = 0.0;
      for (size_t k = 0; k <= j; ++k) s += ti[k] * lj[k];
      c(i, j) = s;
    }
  }
  // Symmetric by construction; symmetrize against roundoff.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (c(i, j) + c(j, i));
      c(i, j) = c(j, i) = avg;
    }
  }
  return c;
}

// V = L⁻ᵀW given linv = L⁻¹: row i accumulates L⁻¹(k, i)·(row k of W)
// over k >= i in ascending order, skipping zeros, as Matrix::Multiply does.
Matrix BackTransform(const Matrix& linv, const Matrix& w) {
  const size_t n = linv.rows();
  Matrix v(n, w.cols());
  for (size_t i = 0; i < n; ++i) {
    double* vi = &v(i, 0);
    for (size_t k = i; k < n; ++k) {
      const double lki = linv(k, i);
      if (lki == 0.0) continue;
      const double* wk = Row(w, k);
      for (size_t j = 0; j < w.cols(); ++j) vi[j] += lki * wk[j];
    }
  }
  return v;
}

}  // namespace

StatusOr<EigenDecomposition> SymmetricEigen(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen: matrix not square");
  }
  if (!AllFinite(a)) {
    return Status::InvalidArgument("SymmetricEigen: matrix not finite");
  }
  const size_t n = a.rows();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (std::fabs(a(i, j) - a(j, i)) >
          1e-8 * (1.0 + std::fabs(a(i, j)))) {
        return Status::InvalidArgument("SymmetricEigen: matrix not symmetric");
      }
    }
  }

  EigenDecomposition out;
  if (n == 0) return out;
  Matrix w = a;
  Vector d(n);
  Vector e(n);
  Tridiagonalize(w, d, e);
  Status s = DiagonalizeTridiagonal(w, d, e);
  if (!s.ok()) return s;

  // Sort by descending eigenvalue; eigenvector order[c] is row order[c].
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return d[x] > d[y]; });

  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t c = 0; c < n; ++c) {
    out.values[c] = d[order[c]];
    const double* row = Row(w, order[c]);
    for (size_t r = 0; r < n; ++r) out.vectors(r, c) = row[r];
  }
  return out;
}

StatusOr<EigenDecomposition> GeneralizedSymmetricEigen(const Matrix& a,
                                                       const Matrix& b) {
  if (!AllFinite(a) || !AllFinite(b)) {
    return Status::InvalidArgument(
        "GeneralizedSymmetricEigen: matrix not finite");
  }
  if (a.rows() != a.cols() || a.rows() != b.rows()) {
    return Status::InvalidArgument(
        "GeneralizedSymmetricEigen: shape mismatch");
  }
  Matrix linv;
  {
    StatusOr<Matrix> l = CholeskyFactor(b);
    if (!l.ok()) return l.status();
    StatusOr<Matrix> inv = InvertLowerTriangular(*l);
    if (!inv.ok()) return inv.status();
    linv = std::move(*inv);
  }
  // C is a temporary: it is released before the back-transform allocates.
  StatusOr<EigenDecomposition> eig = SymmetricEigen(ReduceToStandard(linv, a));
  if (!eig.ok()) return eig.status();
  eig->vectors = BackTransform(linv, eig->vectors);
  return eig;
}

}  // namespace contender
