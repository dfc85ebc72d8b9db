// Compressed sparse column (CSC) matrices and the kernels the interior-point
// solver needs: triplet assembly, mat-vec with the matrix and its transpose,
// transposition, general sparse matrix-matrix product, and symmetric
// permutation.
//
// Indices are std::size_t-free by design: int32 is plenty for the problem
// sizes of this library and keeps the factorisation caches compact.
#pragma once

#include <cstdint>
#include <vector>

#include "bbs/linalg/dense_matrix.hpp"

namespace bbs::linalg {

using Index = std::int32_t;

/// Triplet (coordinate-form) accumulator used to assemble sparse matrices.
/// Duplicate entries are summed during compression, which lets constraint
/// builders emit coefficients in any convenient order.
class TripletList {
 public:
  TripletList(Index rows, Index cols);

  void add(Index row, Index col, double value);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  std::size_t entries() const { return rows_idx_.size(); }

  const std::vector<Index>& row_indices() const { return rows_idx_; }
  const std::vector<Index>& col_indices() const { return cols_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  Index rows_;
  Index cols_;
  std::vector<Index> rows_idx_;
  std::vector<Index> cols_idx_;
  std::vector<double> values_;
};

/// Immutable compressed-sparse-column matrix.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Compresses a triplet list; duplicates are summed, explicit zeros kept.
  static SparseMatrix from_triplets(const TripletList& t);

  /// Builds a matrix from an explicit CSC pattern with all-zero values.
  /// Row indices must be in range, sorted and unique within each column.
  /// Used by the fixed-pattern KKT assembly, which fills the values in place.
  static SparseMatrix from_pattern(Index rows, Index cols,
                                   std::vector<Index> col_ptr,
                                   std::vector<Index> row_ind);

  /// Identity of size n.
  static SparseMatrix identity(Index n);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return static_cast<Index>(row_ind_.size()); }

  const std::vector<Index>& col_ptr() const { return col_ptr_; }
  const std::vector<Index>& row_ind() const { return row_ind_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// y += alpha * A * x.
  void gaxpy(double alpha, const Vector& x, Vector& y) const;

  /// y += alpha * A' * x.
  void gaxpy_transpose(double alpha, const Vector& x, Vector& y) const;

  /// Returns A * x.
  Vector multiply(const Vector& x) const;

  /// Returns A' * x.
  Vector multiply_transpose(const Vector& x) const;

  /// Returns A'.
  SparseMatrix transpose() const;

  /// Returns A * B (general SpGEMM). Entry order within columns is sorted.
  SparseMatrix multiply(const SparseMatrix& b) const;

  /// Returns P A P' for a symmetric matrix given as a full pattern (both
  /// triangles stored). perm[new] = old.
  SparseMatrix permute_symmetric(const std::vector<Index>& perm) const;

  /// Densifies (for tests and small reference computations).
  DenseMatrix to_dense() const;

  /// Largest absolute entry (0 for an empty matrix).
  double norm_max() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> col_ptr_;   // size cols_ + 1
  std::vector<Index> row_ind_;   // size nnz, sorted within each column
  std::vector<double> values_;   // size nnz
};

}  // namespace bbs::linalg
