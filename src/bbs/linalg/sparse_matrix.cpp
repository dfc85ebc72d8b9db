#include "bbs/linalg/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "bbs/common/assert.hpp"

namespace bbs::linalg {

TripletList::TripletList(Index rows, Index cols) : rows_(rows), cols_(cols) {
  BBS_REQUIRE(rows >= 0 && cols >= 0, "TripletList: negative dimension");
}

void TripletList::add(Index row, Index col, double value) {
  BBS_REQUIRE(row >= 0 && row < rows_ && col >= 0 && col < cols_,
              "TripletList::add: index out of range");
  rows_idx_.push_back(row);
  cols_idx_.push_back(col);
  values_.push_back(value);
}

SparseMatrix SparseMatrix::from_triplets(const TripletList& t) {
  SparseMatrix m;
  m.rows_ = t.rows();
  m.cols_ = t.cols();
  const std::size_t nz = t.entries();

  // Count entries per column.
  std::vector<Index> count(static_cast<std::size_t>(m.cols_) + 1, 0);
  for (std::size_t k = 0; k < nz; ++k) ++count[t.col_indices()[k] + 1];
  m.col_ptr_.assign(count.begin(), count.end());
  for (Index c = 0; c < m.cols_; ++c) m.col_ptr_[c + 1] += m.col_ptr_[c];

  // Scatter.
  std::vector<Index> next(m.col_ptr_.begin(), m.col_ptr_.end() - 1);
  m.row_ind_.resize(nz);
  m.values_.resize(nz);
  for (std::size_t k = 0; k < nz; ++k) {
    const Index c = t.col_indices()[k];
    const Index slot = next[c]++;
    m.row_ind_[slot] = t.row_indices()[k];
    m.values_[slot] = t.values()[k];
  }

  // Sort within columns and sum duplicates.
  std::vector<Index> out_ind;
  std::vector<double> out_val;
  out_ind.reserve(nz);
  out_val.reserve(nz);
  std::vector<Index> new_ptr(static_cast<std::size_t>(m.cols_) + 1, 0);
  std::vector<std::pair<Index, double>> col_entries;
  for (Index c = 0; c < m.cols_; ++c) {
    col_entries.clear();
    for (Index k = m.col_ptr_[c]; k < m.col_ptr_[c + 1]; ++k) {
      col_entries.emplace_back(m.row_ind_[k], m.values_[k]);
    }
    std::sort(col_entries.begin(), col_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::size_t col_start = out_ind.size();
    for (const auto& [row, val] : col_entries) {
      if (out_ind.size() > col_start && out_ind.back() == row) {
        out_val.back() += val;  // duplicate entry within the column: sum
      } else {
        out_ind.push_back(row);
        out_val.push_back(val);
      }
    }
    new_ptr[c + 1] = static_cast<Index>(out_ind.size());
  }
  m.col_ptr_ = std::move(new_ptr);
  m.row_ind_ = std::move(out_ind);
  m.values_ = std::move(out_val);
  return m;
}

SparseMatrix SparseMatrix::from_pattern(Index rows, Index cols,
                                        std::vector<Index> col_ptr,
                                        std::vector<Index> row_ind) {
  BBS_REQUIRE(rows >= 0 && cols >= 0 &&
                  col_ptr.size() == static_cast<std::size_t>(cols) + 1 &&
                  col_ptr.front() == 0 &&
                  col_ptr.back() == static_cast<Index>(row_ind.size()) &&
                  std::is_sorted(col_ptr.begin(), col_ptr.end()),
              "SparseMatrix::from_pattern: malformed column pointers");
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_ = std::move(col_ptr);
  m.row_ind_ = std::move(row_ind);
  m.values_.assign(m.row_ind_.size(), 0.0);
  return m;
}

SparseMatrix SparseMatrix::identity(Index n) {
  TripletList t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 1.0);
  return from_triplets(t);
}

void SparseMatrix::gaxpy(double alpha, const Vector& x, Vector& y) const {
  BBS_REQUIRE(x.size() == static_cast<std::size_t>(cols_) &&
                  y.size() == static_cast<std::size_t>(rows_),
              "SparseMatrix::gaxpy: size mismatch");
  for (Index c = 0; c < cols_; ++c) {
    const double xc = alpha * x[static_cast<std::size_t>(c)];
    if (xc == 0.0) continue;
    for (Index k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      y[static_cast<std::size_t>(row_ind_[k])] += values_[k] * xc;
    }
  }
}

void SparseMatrix::gaxpy_transpose(double alpha, const Vector& x,
                                   Vector& y) const {
  BBS_REQUIRE(x.size() == static_cast<std::size_t>(rows_) &&
                  y.size() == static_cast<std::size_t>(cols_),
              "SparseMatrix::gaxpy_transpose: size mismatch");
  for (Index c = 0; c < cols_; ++c) {
    double s = 0.0;
    for (Index k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      s += values_[k] * x[static_cast<std::size_t>(row_ind_[k])];
    }
    y[static_cast<std::size_t>(c)] += alpha * s;
  }
}

Vector SparseMatrix::multiply(const Vector& x) const {
  Vector y(static_cast<std::size_t>(rows_), 0.0);
  gaxpy(1.0, x, y);
  return y;
}

Vector SparseMatrix::multiply_transpose(const Vector& x) const {
  Vector y(static_cast<std::size_t>(cols_), 0.0);
  gaxpy_transpose(1.0, x, y);
  return y;
}

SparseMatrix SparseMatrix::transpose() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.col_ptr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  t.row_ind_.resize(row_ind_.size());
  t.values_.resize(values_.size());
  // Count per row of this matrix == per column of the transpose.
  for (Index k = 0; k < nnz(); ++k) ++t.col_ptr_[row_ind_[k] + 1];
  for (Index c = 0; c < t.cols_; ++c) t.col_ptr_[c + 1] += t.col_ptr_[c];
  std::vector<Index> next(t.col_ptr_.begin(), t.col_ptr_.end() - 1);
  for (Index c = 0; c < cols_; ++c) {
    for (Index k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      const Index slot = next[row_ind_[k]]++;
      t.row_ind_[slot] = c;
      t.values_[slot] = values_[k];
    }
  }
  return t;  // columns are sorted because we iterate source columns in order
}

SparseMatrix SparseMatrix::multiply(const SparseMatrix& b) const {
  BBS_REQUIRE(cols_ == b.rows_, "SparseMatrix::multiply: shape mismatch");
  SparseMatrix c;
  c.rows_ = rows_;
  c.cols_ = b.cols_;
  c.col_ptr_.assign(static_cast<std::size_t>(b.cols_) + 1, 0);

  std::vector<double> work(static_cast<std::size_t>(rows_), 0.0);
  std::vector<Index> mark(static_cast<std::size_t>(rows_), -1);
  std::vector<Index> pattern;
  pattern.reserve(static_cast<std::size_t>(rows_));

  for (Index j = 0; j < b.cols_; ++j) {
    pattern.clear();
    for (Index kb = b.col_ptr_[j]; kb < b.col_ptr_[j + 1]; ++kb) {
      const Index col_a = b.row_ind_[kb];
      const double bv = b.values_[kb];
      if (bv == 0.0) continue;
      for (Index ka = col_ptr_[col_a]; ka < col_ptr_[col_a + 1]; ++ka) {
        const Index r = row_ind_[ka];
        if (mark[static_cast<std::size_t>(r)] != j) {
          mark[static_cast<std::size_t>(r)] = j;
          work[static_cast<std::size_t>(r)] = 0.0;
          pattern.push_back(r);
        }
        work[static_cast<std::size_t>(r)] += values_[ka] * bv;
      }
    }
    std::sort(pattern.begin(), pattern.end());
    for (Index r : pattern) {
      c.row_ind_.push_back(r);
      c.values_.push_back(work[static_cast<std::size_t>(r)]);
    }
    c.col_ptr_[j + 1] = static_cast<Index>(c.row_ind_.size());
  }
  return c;
}

SparseMatrix SparseMatrix::permute_symmetric(
    const std::vector<Index>& perm) const {
  BBS_REQUIRE(rows_ == cols_, "permute_symmetric: matrix must be square");
  BBS_REQUIRE(perm.size() == static_cast<std::size_t>(rows_),
              "permute_symmetric: permutation size mismatch");
  // inv[old] = new.
  std::vector<Index> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<Index>(i);

  TripletList t(rows_, cols_);
  for (Index c = 0; c < cols_; ++c) {
    for (Index k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      t.add(inv[static_cast<std::size_t>(row_ind_[k])],
            inv[static_cast<std::size_t>(c)], values_[k]);
    }
  }
  return from_triplets(t);
}

DenseMatrix SparseMatrix::to_dense() const {
  DenseMatrix d(static_cast<std::size_t>(rows_),
                static_cast<std::size_t>(cols_));
  for (Index c = 0; c < cols_; ++c) {
    for (Index k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      d(static_cast<std::size_t>(row_ind_[k]), static_cast<std::size_t>(c)) +=
          values_[k];
    }
  }
  return d;
}

double SparseMatrix::norm_max() const {
  double m = 0.0;
  for (double v : values_) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace bbs::linalg
