#include "bbs/linalg/sparse_ldlt.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "bbs/common/assert.hpp"

namespace bbs::linalg {

SparseLdlt::SparseLdlt(const SparseMatrix& a) : SparseLdlt(a, Options{}) {}

SparseLdlt::SparseLdlt(const SparseMatrix& a, const Options& options) {
  BBS_REQUIRE(a.rows() == a.cols(), "SparseLdlt: matrix must be square");
  n_ = a.rows();
  BBS_REQUIRE(options.pivot_signs.empty() ||
                  options.pivot_signs.size() == static_cast<std::size_t>(n_),
              "SparseLdlt: pivot_signs must have one entry per row");
  if (options.fixed_permutation != nullptr) {
    BBS_REQUIRE(is_permutation(*options.fixed_permutation) &&
                    options.fixed_permutation->size() ==
                        static_cast<std::size_t>(n_),
                "SparseLdlt: fixed_permutation is not a permutation of the "
                "matrix dimension");
    perm_ = *options.fixed_permutation;
  } else {
    perm_ = compute_ordering(a, options.ordering);
  }
  inv_perm_.resize(perm_.size());
  for (std::size_t i = 0; i < perm_.size(); ++i)
    inv_perm_[static_cast<std::size_t>(perm_[i])] = static_cast<Index>(i);
  if (!options.pivot_signs.empty()) {
    sign_.resize(perm_.size());
    for (std::size_t i = 0; i < perm_.size(); ++i) {
      const signed char sign =
          options.pivot_signs[static_cast<std::size_t>(perm_[i])];
      BBS_REQUIRE(sign == 1 || sign == -1,
                  "SparseLdlt: pivot signs must be +1 or -1");
      sign_[i] = sign;
    }
  }

  a_col_ptr_ = a.col_ptr();
  a_row_ind_ = a.row_ind();

  // Pattern of the upper triangle of P A P': count entries per permuted
  // column, then place row indices and sort within columns.
  up_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (Index c = 0; c < n_; ++c) {
    const Index pc = inv_perm_[static_cast<std::size_t>(c)];
    for (Index k = a_col_ptr_[static_cast<std::size_t>(c)];
         k < a_col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      const Index pr =
          inv_perm_[static_cast<std::size_t>(a_row_ind_[static_cast<std::size_t>(k)])];
      if (pr <= pc) ++up_ptr_[static_cast<std::size_t>(pc) + 1];
    }
  }
  for (Index c = 0; c < n_; ++c)
    up_ptr_[static_cast<std::size_t>(c) + 1] +=
        up_ptr_[static_cast<std::size_t>(c)];
  up_ind_.assign(static_cast<std::size_t>(up_ptr_[static_cast<std::size_t>(n_)]),
                 0);
  {
    std::vector<Index> next(up_ptr_.begin(), up_ptr_.end() - 1);
    for (Index c = 0; c < n_; ++c) {
      const Index pc = inv_perm_[static_cast<std::size_t>(c)];
      for (Index k = a_col_ptr_[static_cast<std::size_t>(c)];
           k < a_col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
        const Index pr = inv_perm_[static_cast<std::size_t>(
            a_row_ind_[static_cast<std::size_t>(k)])];
        if (pr <= pc)
          up_ind_[static_cast<std::size_t>(next[static_cast<std::size_t>(pc)]++)] =
              pr;
      }
    }
    for (Index c = 0; c < n_; ++c) {
      std::sort(up_ind_.begin() + up_ptr_[static_cast<std::size_t>(c)],
                up_ind_.begin() + up_ptr_[static_cast<std::size_t>(c) + 1]);
    }
  }
  up_val_.assign(up_ind_.size(), 0.0);

  // Scatter map: input nonzero -> slot in the permuted upper triangle.
  scatter_.assign(a_row_ind_.size(), -1);
  for (Index c = 0; c < n_; ++c) {
    const Index pc = inv_perm_[static_cast<std::size_t>(c)];
    for (Index k = a_col_ptr_[static_cast<std::size_t>(c)];
         k < a_col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      const Index pr = inv_perm_[static_cast<std::size_t>(
          a_row_ind_[static_cast<std::size_t>(k)])];
      if (pr > pc) continue;
      const auto begin = up_ind_.begin() + up_ptr_[static_cast<std::size_t>(pc)];
      const auto end =
          up_ind_.begin() + up_ptr_[static_cast<std::size_t>(pc) + 1];
      const auto it = std::lower_bound(begin, end, pr);
      BBS_ASSERT_MSG(it != end && *it == pr, "upper-triangle slot not found");
      scatter_[static_cast<std::size_t>(k)] =
          static_cast<Index>(it - up_ind_.begin());
    }
  }

  symbolic();

  work_y_.assign(static_cast<std::size_t>(n_), 0.0);
  work_pattern_.assign(static_cast<std::size_t>(n_), 0);
  work_flag_.assign(static_cast<std::size_t>(n_), -1);
  work_next_.assign(static_cast<std::size_t>(n_), 0);
  work_xp_.assign(static_cast<std::size_t>(n_), 0.0);

  scatter_values(a);
  numeric();
}

void SparseLdlt::refactor(const SparseMatrix& a) {
  BBS_REQUIRE(a.rows() == n_ && a.cols() == n_ &&
                  a.col_ptr() == a_col_ptr_ && a.row_ind() == a_row_ind_,
              "SparseLdlt::refactor: sparsity pattern differs from the "
              "matrix analysed at construction");
  scatter_values(a);
  numeric();
}

void SparseLdlt::scatter_values(const SparseMatrix& a) {
  // The scatter map is a bijection from the kept input entries onto the
  // upper-triangle slots (the permutation is bijective and the CSC input
  // has unique entries), so plain assignment covers every slot.
  const std::vector<double>& v = a.values();
  for (std::size_t k = 0; k < scatter_.size(); ++k) {
    const Index slot = scatter_[k];
    if (slot >= 0) up_val_[static_cast<std::size_t>(slot)] = v[k];
  }
}

void SparseLdlt::symbolic() {
  // Elimination tree and column counts of L (Liu's algorithm as used in the
  // LDL package): for column k, walk from each row index i < k towards the
  // root, stopping at nodes already reached in this column's sweep.
  parent_.assign(static_cast<std::size_t>(n_), -1);
  std::vector<Index> flag(static_cast<std::size_t>(n_), -1);
  std::vector<Index> lnz(static_cast<std::size_t>(n_), 0);

  for (Index k = 0; k < n_; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    for (Index p = up_ptr_[static_cast<std::size_t>(k)];
         p < up_ptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      Index i = up_ind_[static_cast<std::size_t>(p)];
      while (i < k && flag[static_cast<std::size_t>(i)] != k) {
        if (parent_[static_cast<std::size_t>(i)] == -1)
          parent_[static_cast<std::size_t>(i)] = k;
        ++lnz[static_cast<std::size_t>(i)];  // L(k, i) is a nonzero
        flag[static_cast<std::size_t>(i)] = k;
        i = parent_[static_cast<std::size_t>(i)];
      }
    }
  }

  lp_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (Index k = 0; k < n_; ++k)
    lp_[static_cast<std::size_t>(k) + 1] =
        lp_[static_cast<std::size_t>(k)] + lnz[static_cast<std::size_t>(k)];
  li_.assign(static_cast<std::size_t>(lp_[static_cast<std::size_t>(n_)]), 0);
  lx_.assign(li_.size(), 0.0);
  d_.assign(static_cast<std::size_t>(n_), 0.0);
}

void SparseLdlt::numeric() {
  // A pass that throws mid-column leaves lx_/d_ half-updated; the factor
  // stays poisoned until a later pass completes.
  factor_valid_ = false;
  // Reset the column-tagged workspaces: tags repeat across numeric passes,
  // and work_y_ may hold residue if a previous pass threw mid-column.
  std::fill(work_y_.begin(), work_y_.end(), 0.0);
  std::fill(work_flag_.begin(), work_flag_.end(), -1);
  for (Index k = 0; k < n_; ++k)
    work_next_[static_cast<std::size_t>(k)] = lp_[static_cast<std::size_t>(k)];
  ++numeric_count_;
  dynamic_regularisations_ = 0;

  std::vector<double>& y = work_y_;
  std::vector<Index>& pattern = work_pattern_;
  std::vector<Index>& flag = work_flag_;
  std::vector<Index>& lnz_next = work_next_;

  for (Index k = 0; k < n_; ++k) {
    // Scatter column k of the (permuted) upper triangle into y and compute
    // the nonzero pattern of row k of L in topological order.
    Index top = n_;
    flag[static_cast<std::size_t>(k)] = k;
    y[static_cast<std::size_t>(k)] = 0.0;
    for (Index p = up_ptr_[static_cast<std::size_t>(k)];
         p < up_ptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      Index i = up_ind_[static_cast<std::size_t>(p)];
      if (i > k) continue;
      y[static_cast<std::size_t>(i)] += up_val_[static_cast<std::size_t>(p)];
      Index len = 0;
      while (flag[static_cast<std::size_t>(i)] != k) {
        pattern[static_cast<std::size_t>(len++)] = i;
        flag[static_cast<std::size_t>(i)] = k;
        i = parent_[static_cast<std::size_t>(i)];
      }
      while (len > 0) pattern[static_cast<std::size_t>(--top)] =
          pattern[static_cast<std::size_t>(--len)];
    }

    double dk = y[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(k)] = 0.0;

    // Sparse triangular solve along the pattern: for each i in the pattern
    // (ascending elimination order), finalise L(k, i) and update.
    for (Index s = top; s < n_; ++s) {
      const Index i = pattern[static_cast<std::size_t>(s)];
      const double yi = y[static_cast<std::size_t>(i)];
      y[static_cast<std::size_t>(i)] = 0.0;
      const Index pend = lnz_next[static_cast<std::size_t>(i)];
      for (Index p = lp_[static_cast<std::size_t>(i)]; p < pend; ++p) {
        y[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])] -=
            lx_[static_cast<std::size_t>(p)] * yi;
      }
      const double lki = yi / d_[static_cast<std::size_t>(i)];
      dk -= lki * yi;
      li_[static_cast<std::size_t>(pend)] = k;
      lx_[static_cast<std::size_t>(pend)] = lki;
      ++lnz_next[static_cast<std::size_t>(i)];
    }

    if (!std::isfinite(dk)) {
      throw NumericalError("SparseLdlt: pivot " + std::to_string(k) +
                           " is not finite");
    }
    if (!sign_.empty()) {
      const double sign = sign_[static_cast<std::size_t>(k)];
      if (sign * dk <= kDynamicThreshold) {
        dk = sign * kDynamicRegularisation;
        ++dynamic_regularisations_;
      }
    } else if (std::abs(dk) < kMinPivot) {
      throw NumericalError("SparseLdlt: pivot " + std::to_string(k) +
                           " below minimum magnitude (" + std::to_string(dk) +
                           ")");
    }
    d_[static_cast<std::size_t>(k)] = dk;
  }
  factor_valid_ = true;
}

void SparseLdlt::solve(Vector& b) const {
  BBS_REQUIRE(factor_valid_,
              "SparseLdlt::solve: factorisation is invalid (a refactor threw "
              "mid-pass); refactor successfully before solving");
  BBS_REQUIRE(b.size() == static_cast<std::size_t>(n_),
              "SparseLdlt::solve: size mismatch");
  // Permute: xp = P b.
  Vector& xp = work_xp_;
  for (Index i = 0; i < n_; ++i)
    xp[static_cast<std::size_t>(i)] =
        b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];

  // Forward solve L y = xp (L is unit lower triangular, stored by columns).
  for (Index j = 0; j < n_; ++j) {
    const double xj = xp[static_cast<std::size_t>(j)];
    if (xj == 0.0) continue;
    for (Index p = lp_[static_cast<std::size_t>(j)];
         p < lp_[static_cast<std::size_t>(j) + 1]; ++p) {
      xp[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])] -=
          lx_[static_cast<std::size_t>(p)] * xj;
    }
  }
  // Diagonal.
  for (Index j = 0; j < n_; ++j)
    xp[static_cast<std::size_t>(j)] /= d_[static_cast<std::size_t>(j)];
  // Backward solve L' x = y.
  for (Index j = n_ - 1; j >= 0; --j) {
    double s = xp[static_cast<std::size_t>(j)];
    for (Index p = lp_[static_cast<std::size_t>(j)];
         p < lp_[static_cast<std::size_t>(j) + 1]; ++p) {
      s -= lx_[static_cast<std::size_t>(p)] *
           xp[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])];
    }
    xp[static_cast<std::size_t>(j)] = s;
  }

  // Un-permute: b = P' xp.
  for (Index i = 0; i < n_; ++i)
    b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
        xp[static_cast<std::size_t>(i)];
}

int SparseLdlt::negative_pivots() const {
  int count = 0;
  for (double d : d_)
    if (d < 0.0) ++count;
  return count;
}

}  // namespace bbs::linalg
