// Nesterov–Todd scaling for the composite cone.
//
// Given strictly interior s and z, the NT scaling point W is the unique
// symmetric cone automorphism with W z = W^{-1} s =: lambda. For the
// nonnegative orthant this is the diagonal matrix w_i = sqrt(s_i / z_i); for
// a second-order cone it is eta * Q(w_bar) where Q is the quadratic
// representation 2*w*w' - (w'Jw)*J of a unit-hyperbolic point w_bar and
// eta = ((s'Js)/(z'Jz))^{1/4}.
//
// The interior-point method only needs:
//   * lambda = W z,
//   * application of W and W^{-1} to vectors (W is symmetric),
//   * the product W^{-1} G for the KKT assembly.
#pragma once

#include <vector>

#include "bbs/linalg/dense_matrix.hpp"
#include "bbs/linalg/sparse_matrix.hpp"
#include "bbs/solver/cone.hpp"

namespace bbs::solver {

class NtScaling {
 public:
  explicit NtScaling(const ConeSpec& cone);

  /// Recomputes the scaling from the current strictly interior pair (s, z).
  /// Throws NumericalError if either point has left the cone interior.
  void update(const Vector& s, const Vector& z);

  /// The scaled point lambda = W z = W^{-1} s.
  const Vector& lambda() const { return lambda_; }

  /// Returns W v (W is symmetric, so this is also W' v).
  Vector apply_w(const Vector& v) const;

  /// Returns W^{-1} v (also W^{-T} v).
  Vector apply_w_inv(const Vector& v) const;

  /// Allocation-free variants: write W v / W^{-1} v into `out` (resized on
  /// first use). `out` must not alias `v`.
  void apply_w_into(const Vector& v, Vector& out) const;
  void apply_w_inv_into(const Vector& v, Vector& out) const;

  /// Writes W^{-1} G into `out` on a *fixed* pattern: the rows of G in the
  /// LP block keep G's pattern, and every row of a SOC block carries the
  /// union of that block's row patterns (W^{-1} is dense on the block;
  /// explicit zeros are kept). An empty `out` is built from scratch; later
  /// calls update the values in place with no allocation, and throw
  /// ContractViolation if `out` does not carry the pattern for `g`. The
  /// fixed pattern is what lets the KKT system cache its structure.
  void inverse_times_into(const linalg::SparseMatrix& g,
                          linalg::SparseMatrix& out) const;

 private:
  const ConeSpec* cone_;
  Vector w_lp_;      // diagonal scaling of the LP block
  Vector lambda_;    // scaled point for the whole cone
  std::vector<linalg::DenseMatrix> w_soc_;     // per-SOC W block
  std::vector<linalg::DenseMatrix> w_inv_soc_; // per-SOC W^{-1} block
};

}  // namespace bbs::solver
