// Tests for the Nesterov–Todd scaling: the defining identities
// W z = W^{-1} s = lambda, W W^{-1} = I, and the consistency of the
// fixed-pattern product W^{-1} G with applications of W^{-1}.
#include <gtest/gtest.h>

#include <cmath>

#include "bbs/common/assert.hpp"
#include "bbs/common/rng.hpp"
#include "bbs/solver/nt_scaling.hpp"

namespace bbs::solver {
namespace {

/// A random sparse G with one row per cone coordinate and a few columns
/// that touch only part of each SOC block (some not at all).
linalg::SparseMatrix random_g(const ConeSpec& cone, Rng& rng) {
  const linalg::Index cols = 5;
  linalg::TripletList t(cone.dim(), cols);
  for (int e = 0; e < 2 * cone.dim(); ++e) {
    t.add(static_cast<linalg::Index>(rng.next_int(0, cone.dim() - 1)),
          static_cast<linalg::Index>(rng.next_int(0, cols - 1)),
          rng.next_real(-2.0, 2.0));
  }
  return linalg::SparseMatrix::from_triplets(t);
}


class NtScalingRandom : public ::testing::TestWithParam<int> {};

TEST_P(NtScalingRandom, DefiningIdentitiesHold) {
  const ConeSpec cone(3, {3, 4, 6});
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  NtScaling scaling(cone);
  for (int trial = 0; trial < 25; ++trial) {
    const Vector s = random_interior_point(cone, rng);
    const Vector z = random_interior_point(cone, rng);
    scaling.update(s, z);

    // lambda = W z = W^{-1} s.
    const Vector wz = scaling.apply_w(z);
    const Vector winv_s = scaling.apply_w_inv(s);
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_NEAR(wz[i], winv_s[i], 1e-9);
      EXPECT_NEAR(wz[i], scaling.lambda()[i], 1e-9);
    }

    // lambda must be in the cone interior (it is a geometric mean of two
    // interior points).
    EXPECT_TRUE(cone.is_interior(scaling.lambda()));

    // W^{-1} (W v) = v for random v.
    Vector v(s.size());
    for (auto& x : v) x = rng.next_real(-2.0, 2.0);
    const Vector round_trip = scaling.apply_w_inv(scaling.apply_w(v));
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(round_trip[i], v[i], 1e-9);
    }

    // The sparse W^{-1} G equals applying W^{-1} to G x.
    const linalg::SparseMatrix g = random_g(cone, rng);
    linalg::SparseMatrix winv_g;
    scaling.inverse_times_into(g, winv_g);
    Vector x(static_cast<std::size_t>(g.cols()));
    for (auto& xi : x) xi = rng.next_real(-2.0, 2.0);
    const Vector a = winv_g.multiply(x);
    const Vector b = scaling.apply_w_inv(g.multiply(x));
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NtScalingRandom, ::testing::Values(1, 2, 3));

TEST(NtScaling, InverseTimesIntoReusesFixedPattern) {
  const ConeSpec cone(3, {3});
  Rng rng(9);
  NtScaling scaling(cone);
  scaling.update(random_interior_point(cone, rng),
                 random_interior_point(cone, rng));
  const linalg::SparseMatrix g = random_g(cone, rng);

  linalg::SparseMatrix winv_g;
  scaling.inverse_times_into(g, winv_g);  // builds the fixed pattern
  const linalg::SparseMatrix first = winv_g;

  scaling.update(random_interior_point(cone, rng),
                 random_interior_point(cone, rng));
  scaling.inverse_times_into(g, winv_g);  // in-place value update
  EXPECT_EQ(winv_g.col_ptr(), first.col_ptr());
  EXPECT_EQ(winv_g.row_ind(), first.row_ind());

  // Values must match W^{-1} applied to each column of G.
  for (linalg::Index j = 0; j < g.cols(); ++j) {
    Vector e(static_cast<std::size_t>(g.cols()), 0.0);
    e[static_cast<std::size_t>(j)] = 1.0;
    const Vector a = winv_g.multiply(e);
    const Vector b = scaling.apply_w_inv(g.multiply(e));
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(NtScaling, InverseTimesIntoRejectsForeignPattern) {
  const ConeSpec cone(4, {});
  Rng rng(11);
  NtScaling scaling(cone);
  scaling.update(random_interior_point(cone, rng),
                 random_interior_point(cone, rng));
  const linalg::SparseMatrix g = linalg::SparseMatrix::identity(4);

  // Right shape and entry count, wrong layout (all entries in column 0).
  linalg::TripletList t(4, 4);
  for (linalg::Index r = 0; r < 4; ++r) t.add(r, 0, 1.0);
  linalg::SparseMatrix wrong = linalg::SparseMatrix::from_triplets(t);
  EXPECT_THROW(scaling.inverse_times_into(g, wrong), ContractViolation);
}

TEST(NtScaling, LpBlockIsGeometricMeanScaling) {
  const ConeSpec cone(2, {});
  NtScaling scaling(cone);
  scaling.update({4.0, 9.0}, {1.0, 4.0});
  // lambda_i = sqrt(s_i z_i).
  EXPECT_NEAR(scaling.lambda()[0], 2.0, 1e-14);
  EXPECT_NEAR(scaling.lambda()[1], 6.0, 1e-14);
  // W v = sqrt(s/z) .* v.
  const Vector w1 = scaling.apply_w({1.0, 1.0});
  EXPECT_NEAR(w1[0], 2.0, 1e-14);
  EXPECT_NEAR(w1[1], 1.5, 1e-14);
}

TEST(NtScaling, SymmetricInSAndZAtIdentity) {
  // With s == z, W must be the identity and lambda == s.
  const ConeSpec cone(1, {3});
  NtScaling scaling(cone);
  const Vector s{2.0, 3.0, 1.0, -0.5};
  scaling.update(s, s);
  Vector v{0.7, -0.2, 0.9, 0.4};
  const Vector wv = scaling.apply_w(v);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(wv[i], v[i], 1e-12);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(scaling.lambda()[i], s[i], 1e-12);
  }
}

TEST(NtScaling, RejectsBoundaryPoints) {
  const ConeSpec cone(1, {3});
  NtScaling scaling(cone);
  EXPECT_THROW(scaling.update({0.0, 2.0, 1.0, 0.0}, {1.0, 2.0, 1.0, 0.0}),
               NumericalError);
  EXPECT_THROW(scaling.update({1.0, 1.0, 1.0, 0.0}, {1.0, 2.0, 1.0, 0.0}),
               NumericalError);
}

TEST(NtScaling, DualityMeasureInvariant) {
  // s'z is preserved by the scaling: lambda'lambda = s'z.
  const ConeSpec cone(2, {5});
  Rng rng(5);
  NtScaling scaling(cone);
  for (int trial = 0; trial < 20; ++trial) {
    const Vector s = random_interior_point(cone, rng);
    const Vector z = random_interior_point(cone, rng);
    scaling.update(s, z);
    EXPECT_NEAR(linalg::dot(scaling.lambda(), scaling.lambda()),
                linalg::dot(s, z), 1e-8 * (1.0 + linalg::dot(s, z)));
  }
}

}  // namespace
}  // namespace bbs::solver
