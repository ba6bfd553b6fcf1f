#include "math/eigen.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "math/kernel.h"
#include "util/random.h"

namespace contender {
namespace {

// Test oracle: an independent algorithm, cyclic Jacobi rotations (up to 64
// sweeps, until the off-diagonal norm is below 1e-12). Returns the
// eigenvalues in descending order.
Vector JacobiEigenvalues(const Matrix& a) {
  const size_t n = a.rows();
  Matrix m = a;
  for (int sweep = 0; sweep < 64; ++sweep) {
    double off = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) off += m(i, j) * m(i, j);
    }
    if (std::sqrt(off) < 1e-12) break;
    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double theta = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
      }
    }
  }
  Vector values(n);
  for (size_t i = 0; i < n; ++i) values[i] = m(i, i);
  std::sort(values.begin(), values.end(), std::greater<double>());
  return values;
}

double MaxAbs(const Matrix& m) {
  double x = 0.0;
  for (double v : m.data()) x = std::max(x, std::fabs(v));
  return x;
}

// max |(A V - V Λ)(r, c)|, relative to max |A|.
double EigenResidual(const Matrix& a, const EigenDecomposition& eig) {
  const Matrix av = a.Multiply(eig.vectors);
  double worst = 0.0;
  for (size_t r = 0; r < av.rows(); ++r) {
    for (size_t c = 0; c < av.cols(); ++c) {
      worst = std::max(worst, std::fabs(av(r, c) - eig.vectors(r, c) *
                                                        eig.values[c]));
    }
  }
  return worst / std::max(MaxAbs(a), 1.0);
}

// max |(Vᵀ V - I)(r, c)|.
double OrthonormalityError(const Matrix& v) {
  const Matrix vtv = v.Transpose().Multiply(v);
  double worst = 0.0;
  for (size_t r = 0; r < vtv.rows(); ++r) {
    for (size_t c = 0; c < vtv.cols(); ++c) {
      worst = std::max(worst, std::fabs(vtv(r, c) - (r == c ? 1.0 : 0.0)));
    }
  }
  return worst;
}

TEST(EigenTest, DiagonalMatrix) {
  auto eig = SymmetricEigen({{3.0, 0.0}, {0.0, 1.0}});
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 1.0, 1e-10);
}

TEST(EigenTest, KnownEigenpairs) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  auto eig = SymmetricEigen({{2.0, 1.0}, {1.0, 2.0}});
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->values[1], 1.0, 1e-10);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  const double v0 = eig->vectors(0, 0);
  const double v1 = eig->vectors(1, 0);
  EXPECT_NEAR(std::fabs(v0), 1.0 / std::sqrt(2.0), 1e-8);
  EXPECT_NEAR(v0, v1, 1e-8);
}

TEST(EigenTest, RejectsNonSymmetric) {
  EXPECT_FALSE(SymmetricEigen({{1.0, 2.0}, {0.0, 1.0}}).ok());
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(EigenTest, RejectsNaN) {
  Matrix a = Matrix::Identity(3);
  a(1, 1) = std::numeric_limits<double>::quiet_NaN();
  auto eig = SymmetricEigen(a);
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kInvalidArgument);

  // Symmetric off-diagonal NaNs pass a |a(i,j) - a(j,i)| > tol check.
  Matrix b = Matrix::Identity(3);
  b(0, 2) = b(2, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(SymmetricEigen(b).status().code(), StatusCode::kInvalidArgument);
}

TEST(EigenTest, RejectsInf) {
  Matrix a = Matrix::Identity(3);
  a(0, 1) = a(1, 0) = std::numeric_limits<double>::infinity();
  auto eig = SymmetricEigen(a);
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kInvalidArgument);
}

TEST(EigenTest, OverflowingSpectrumIsAnError) {
  // Finite entries whose largest eigenvalue, 2e308, is not a double.
  auto eig = SymmetricEigen({{1e308, 1e308}, {1e308, 1e308}});
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kInternal);
}

TEST(EigenTest, EmptyMatrix) {
  auto eig = SymmetricEigen(Matrix(0, 0));
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(eig->values.empty());
  EXPECT_EQ(eig->vectors.rows(), 0u);
  EXPECT_EQ(eig->vectors.cols(), 0u);
}

TEST(EigenTest, OneByOne) {
  auto eig = SymmetricEigen({{-2.5}});
  ASSERT_TRUE(eig.ok());
  ASSERT_EQ(eig->values.size(), 1u);
  EXPECT_EQ(eig->values[0], -2.5);
  EXPECT_EQ(std::fabs(eig->vectors(0, 0)), 1.0);
}

TEST(EigenTest, IdentityGivesOrthonormalBasis) {
  const Matrix a = Matrix::Identity(6);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (double v : eig->values) EXPECT_NEAR(v, 1.0, 1e-14);
  EXPECT_LT(OrthonormalityError(eig->vectors), 1e-14);
  EXPECT_LT(EigenResidual(a, *eig), 1e-14);
}

TEST(EigenTest, TiedBlocksGiveOrthonormalBasis) {
  // Three copies of [[2,1],[1,2]] plus a lone 3: eigenvalue 3 four times
  // and 1 three times, each eigenspace shared across blocks.
  Matrix a(7, 7);
  for (size_t b = 0; b < 3; ++b) {
    a(2 * b, 2 * b) = a(2 * b + 1, 2 * b + 1) = 2.0;
    a(2 * b, 2 * b + 1) = a(2 * b + 1, 2 * b) = 1.0;
  }
  a(6, 6) = 3.0;
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  const Vector expected = {3, 3, 3, 3, 1, 1, 1};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(eig->values[i], expected[i], 1e-13);
  }
  EXPECT_LT(OrthonormalityError(eig->vectors), 1e-13);
  EXPECT_LT(EigenResidual(a, *eig), 1e-13);
}

class EigenReconstruction : public ::testing::TestWithParam<int> {};

TEST_P(EigenReconstruction, VDVtEqualsInput) {
  const int n = GetParam();
  Rng rng(500 + static_cast<uint64_t>(n));
  Matrix b(static_cast<size_t>(n), static_cast<size_t>(n));
  for (size_t r = 0; r < b.rows(); ++r) {
    for (size_t c = 0; c < b.cols(); ++c) b(r, c) = rng.Uniform(-1.0, 1.0);
  }
  Matrix a = b.Add(b.Transpose()).Scale(0.5);  // symmetric
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());

  // Eigenvalues sorted descending.
  for (size_t i = 1; i < eig->values.size(); ++i) {
    EXPECT_GE(eig->values[i - 1], eig->values[i] - 1e-12);
  }
  // Reconstruct V diag(w) V^T.
  Matrix d(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    d(static_cast<size_t>(i), static_cast<size_t>(i)) =
        eig->values[static_cast<size_t>(i)];
  }
  Matrix rec =
      eig->vectors.Multiply(d).Multiply(eig->vectors.Transpose());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(rec(r, c), a(r, c), 1e-8);
    }
  }
  // Orthonormal eigenvectors.
  Matrix vtv = eig->vectors.Transpose().Multiply(eig->vectors);
  for (size_t r = 0; r < vtv.rows(); ++r) {
    for (size_t c = 0; c < vtv.cols(); ++c) {
      EXPECT_NEAR(vtv(r, c), r == c ? 1.0 : 0.0, 1e-8);
    }
  }
  EXPECT_LT(EigenResidual(a, *eig), 1e-11);

  const Vector oracle = JacobiEigenvalues(a);
  const double scale =
      std::max(std::fabs(oracle.front()), std::fabs(oracle.back()));
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_LE(std::fabs(eig->values[i] - oracle[i]), 1e-10 * scale)
        << "eigenvalue " << i;
  }
}

// KCCA solves at n = 500 (2 x 250 training mixes): 64, 250 and 500 check
// the solver at that scale.
INSTANTIATE_TEST_SUITE_P(Sizes, EigenReconstruction,
                         ::testing::Values(2, 3, 5, 8, 16, 32, 64, 250, 500));

TEST(GeneralizedEigenTest, ReducesToOrdinaryWhenBIsIdentity) {
  Matrix a = {{2.0, 1.0}, {1.0, 2.0}};
  auto gen = GeneralizedSymmetricEigen(a, Matrix::Identity(2));
  ASSERT_TRUE(gen.ok());
  EXPECT_NEAR(gen->values[0], 3.0, 1e-9);
  EXPECT_NEAR(gen->values[1], 1.0, 1e-9);
}

TEST(GeneralizedEigenTest, SatisfiesDefinition) {
  Rng rng(77);
  const size_t n = 5;
  Matrix m(n, n), c(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t cc = 0; cc < n; ++cc) {
      m(r, cc) = rng.Uniform(-1.0, 1.0);
      c(r, cc) = rng.Uniform(-1.0, 1.0);
    }
  }
  Matrix a = m.Add(m.Transpose()).Scale(0.5);
  Matrix b = c.Multiply(c.Transpose());
  b.AddToDiagonal(1.0);  // SPD

  auto gen = GeneralizedSymmetricEigen(a, b);
  ASSERT_TRUE(gen.ok());
  // Check A v = lambda B v for each eigenpair.
  for (size_t k = 0; k < n; ++k) {
    Vector v(n);
    for (size_t i = 0; i < n; ++i) v[i] = gen->vectors(i, k);
    Vector av = a.Multiply(v);
    Vector bv = b.Multiply(v);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], gen->values[k] * bv[i], 1e-7);
    }
  }
}

TEST(GeneralizedEigenTest, KccaShapedProblem) {
  // The regularized KCCA pencil (see ml/kcca.cc) on 125 examples:
  // A = [0, KxKy; KyKx, 0], B = diag((Kx + κnI)², (Ky + κnI)²).
  const size_t n = 125;
  Rng rng(4242);
  std::vector<Vector> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    for (int j = 0; j < 8; ++j) x[i].push_back(rng.Normal());
    y[i].push_back(rng.Uniform(1.0, 100.0));
  }
  const Matrix kx = CenterGramMatrix(
      GaussianGramMatrix(x, MedianHeuristicGamma(x)));
  const Matrix ky = CenterGramMatrix(
      GaussianGramMatrix(y, MedianHeuristicGamma(y)));
  const double ridge = (0.1 * n / 100.0 + 1e-3) * n;
  Matrix kx_reg = kx;
  kx_reg.AddToDiagonal(ridge);
  Matrix ky_reg = ky;
  ky_reg.AddToDiagonal(ridge);
  const Matrix kxky = kx.Multiply(ky);
  const Matrix bx = kx_reg.Multiply(kx_reg);
  const Matrix by = ky_reg.Multiply(ky_reg);
  Matrix a(2 * n, 2 * n), b(2 * n, 2 * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, n + j) = a(n + j, i) = kxky(i, j);
      b(i, j) = bx(i, j);
      b(n + i, n + j) = by(i, j);
    }
  }

  auto gen = GeneralizedSymmetricEigen(a, b);
  ASSERT_TRUE(gen.ok());
  ASSERT_EQ(gen->values.size(), 2 * n);
  const Matrix av = a.Multiply(gen->vectors);
  const Matrix bv = b.Multiply(gen->vectors);
  const double scale = std::max(MaxAbs(a), MaxAbs(b));
  double worst = 0.0;
  for (size_t c = 0; c < 2 * n; ++c) {
    if (c > 0) {
      EXPECT_GE(gen->values[c - 1], gen->values[c]);
    }
    double vmax = 0.0;
    for (size_t r = 0; r < 2 * n; ++r) {
      vmax = std::max(vmax, std::fabs(gen->vectors(r, c)));
    }
    for (size_t r = 0; r < 2 * n; ++r) {
      const double res = std::fabs(av(r, c) - gen->values[c] * bv(r, c));
      worst = std::max(worst, res / (scale * vmax));
    }
  }
  EXPECT_LT(worst, 1e-10);
  // Canonical correlations lie in [-1, 1] and come in ± pairs.
  EXPECT_LE(gen->values.front(), 1.0 + 1e-9);
  EXPECT_GT(gen->values.front(), 0.0);
  EXPECT_NEAR(gen->values.front(), -gen->values.back(), 1e-9);
}

TEST(GeneralizedEigenTest, RejectsNonFinite) {
  Matrix a = Matrix::Identity(2);
  a(0, 1) = a(1, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(GeneralizedSymmetricEigen(a, Matrix::Identity(2)).status().code(),
            StatusCode::kInvalidArgument);
  Matrix b = Matrix::Identity(2);
  b(1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(GeneralizedSymmetricEigen(Matrix::Identity(2), b).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GeneralizedEigenTest, RejectsShapeMismatch) {
  EXPECT_EQ(GeneralizedSymmetricEigen(Matrix::Identity(3), Matrix::Identity(2))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GeneralizedEigenTest, RejectsNonSpdB) {
  Matrix a = Matrix::Identity(2);
  EXPECT_FALSE(GeneralizedSymmetricEigen(a, {{1.0, 2.0}, {2.0, 1.0}}).ok());
}

}  // namespace
}  // namespace contender
