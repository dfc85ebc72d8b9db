// Sparse LDL^T factorisation of symmetric matrices, in the style of the
// classic up-looking algorithm (elimination tree + column counts + sparse
// triangular solves). This is the workhorse behind the interior-point
// solver's quasi-definite KKT solves.
//
// The factorisation is split into a symbolic phase (fill-reducing
// permutation — approximate minimum degree unless the caller fixes one —
// elimination tree, column counts, workspaces) that runs once in the
// constructor, and a numeric phase that can be re-run against new
// values on the same sparsity pattern via refactor() with zero allocation —
// the structure the interior-point method exploits, since its KKT pattern is
// iteration-invariant.
//
// The input matrix must store the *full* symmetric pattern (both triangles);
// the factorisation reads the upper triangle after applying a fill-reducing
// permutation.
//
// Not reentrant: the solve methods are logically const but share internal
// workspaces, so a SparseLdlt instance must not be used from multiple
// threads concurrently (distinct instances are independent).
#pragma once

#include <vector>

#include "bbs/linalg/ordering.hpp"
#include "bbs/linalg/sparse_matrix.hpp"

namespace bbs::linalg {

class SparseLdlt {
 public:
  /// Without pivot signs, a pivot smaller in magnitude than this throws
  /// NumericalError.
  static constexpr double kMinPivot = 1e-14;
  /// Dynamic regularisation with pivot signs: the threshold below which a
  /// signed pivot is replaced, and the magnitude that replaces it.
  static constexpr double kDynamicThreshold = 1e-13;
  static constexpr double kDynamicRegularisation = 7e-8;

  struct Options {
    OrderingMethod ordering = OrderingMethod::kApproximateMinimumDegree;
    /// Expected sign (+1 or -1) of each pivot, indexed like the rows of the
    /// input matrix (before permutation); empty disables. This is the
    /// dynamic regularisation of ECOS for quasi-definite matrices: a pivot
    /// d with sign * d <= kDynamicThreshold — wrong-signed or near zero
    /// after roundoff — is replaced by sign * kDynamicRegularisation instead
    /// of throwing, and counted. The factor is then that of a slightly
    /// perturbed matrix, which the caller's refinement corrects for.
    std::vector<signed char> pivot_signs;
    /// When non-null, this permutation (perm[new] = old) is used instead of
    /// computing one — callers that factorise a fixed sparsity pattern
    /// repeatedly (the interior-point method) compute the ordering once and
    /// reuse it. The pointee must outlive the constructor call only.
    const std::vector<Index>* fixed_permutation = nullptr;
  };

  /// Factorises the symmetric matrix `a` (full pattern stored).
  explicit SparseLdlt(const SparseMatrix& a);
  SparseLdlt(const SparseMatrix& a, const Options& options);

  /// Numeric-only re-factorisation: reuses the stored permutation,
  /// elimination tree, column pointers, and workspaces with no allocation.
  /// `a` must have exactly the sparsity pattern of the constructor argument
  /// (values are free to change); a pattern change throws ContractViolation.
  /// A NumericalError thrown mid-pass leaves the factor invalid: solve()
  /// then throws until a later refactor() completes (the previous factor is
  /// overwritten in place, not preserved).
  void refactor(const SparseMatrix& a);

  /// Solves A x = b in place (applies the internal permutation).
  void solve(Vector& b) const;

  /// Number of nonzeros in the factor L (excluding the unit diagonal).
  Index factor_nnz() const { return static_cast<Index>(li_.size()); }

  Index dim() const { return n_; }

  /// Number of negative pivots (inertia check for quasi-definite systems).
  int negative_pivots() const;

  /// Pivots replaced by the dynamic regularisation in the last numeric
  /// pass (always 0 without pivot signs).
  int dynamic_regularisations() const { return dynamic_regularisations_; }

  const std::vector<Index>& permutation() const { return perm_; }

  /// Elimination tree over the permuted matrix (parent of each column, -1 at
  /// roots). Exposed so the persistent structure cache can serialise and
  /// verify the symbolic analysis.
  const std::vector<Index>& etree_parent() const { return parent_; }

  /// Factor access (tests and diagnostics): L is unit lower triangular,
  /// stored by columns with an implicit diagonal; D is the pivot vector.
  const std::vector<Index>& factor_col_ptr() const { return lp_; }
  const std::vector<Index>& factor_row_ind() const { return li_; }
  const std::vector<double>& factor_values() const { return lx_; }
  const std::vector<double>& diagonal() const { return d_; }

  /// Numeric factorisations performed so far (1 right after construction).
  int numeric_count() const { return numeric_count_; }

 private:
  void symbolic();
  void scatter_values(const SparseMatrix& a);
  void numeric();

  Index n_ = 0;
  std::vector<Index> perm_;     // perm_[new] = old
  std::vector<Index> inv_perm_; // inv_perm_[old] = new
  std::vector<Index> parent_;   // elimination tree
  std::vector<Index> lp_;       // column pointers of L
  std::vector<Index> li_;       // row indices of L
  std::vector<double> lx_;      // values of L
  std::vector<double> d_;       // diagonal D
  std::vector<signed char> sign_;  // expected pivot signs, permuted order

  // Pattern of the constructor matrix, kept to validate refactor() inputs.
  std::vector<Index> a_col_ptr_;
  std::vector<Index> a_row_ind_;
  // Permuted upper triangle: fixed pattern, values rewritten per refactor.
  std::vector<Index> up_ptr_;
  std::vector<Index> up_ind_;
  std::vector<double> up_val_;
  // scatter_[k] is the position in up_val_ receiving input nonzero k, or -1
  // when the entry lands in the strict lower triangle after permutation.
  std::vector<Index> scatter_;
  // Numeric-phase workspaces (sized once in the constructor).
  std::vector<double> work_y_;
  std::vector<Index> work_pattern_;
  std::vector<Index> work_flag_;
  std::vector<Index> work_next_;
  // Solve workspace (mutable: solve() is logically const).
  mutable Vector work_xp_;
  int numeric_count_ = 0;
  int dynamic_regularisations_ = 0;
  // False while a numeric pass is incomplete (it updates lx_/d_ in place, so
  // a mid-pass throw leaves mixed old/new columns); solve() refuses then.
  bool factor_valid_ = false;
};

}  // namespace bbs::linalg
