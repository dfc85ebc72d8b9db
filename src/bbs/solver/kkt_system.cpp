#include "bbs/solver/kkt_system.hpp"

#include <algorithm>

#include "bbs/common/assert.hpp"
#include "bbs/common/hash.hpp"

namespace bbs::solver {
namespace {

/// Fingerprint of a sparsity pattern (dimension + column pointers + row
/// indices; values excluded). Stable across processes — used to match a
/// cached SymbolicAnalysis against the live pattern of K.
std::uint64_t pattern_hash_of(const linalg::SparseMatrix& a) {
  std::uint64_t hash = common::kFnv1a64Offset;
  const auto n = static_cast<std::uint64_t>(a.cols());
  hash = common::fnv1a_64(&n, sizeof(n), hash);
  hash = common::fnv1a_64_values(a.col_ptr(), hash);
  hash = common::fnv1a_64_values(a.row_ind(), hash);
  return hash;
}

/// True when `perm` is a permutation of K (dimension n) that eliminates the
/// m cone rows first, in natural order — the only layout whose factor is
/// stable (see the header); the variables may follow in any order.
bool is_cone_first_permutation(const std::vector<linalg::Index>& perm,
                               linalg::Index n, linalg::Index m) {
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (std::size_t k = 0; k < perm.size(); ++k) {
    const linalg::Index p = perm[k];
    if (p < 0 || p >= n || seen[static_cast<std::size_t>(p)]) return false;
    if (static_cast<linalg::Index>(k) < m && p != static_cast<linalg::Index>(k))
      return false;
    seen[static_cast<std::size_t>(p)] = true;
  }
  return true;
}

/// Structural pattern of the variable block of K once the cone rows are
/// eliminated (the normal-equation pattern of W^{-1} G, diagonal
/// included): variables j and j' are adjacent when a cone row couples both.
/// Reads the cone-row columns of K, which list each row's variables.
linalg::SparseMatrix variable_block_pattern(const linalg::SparseMatrix& k,
                                            Index m) {
  const Index n = k.cols() - m;
  const std::vector<Index>& kp = k.col_ptr();
  const std::vector<Index>& ki = k.row_ind();
  std::vector<Index> col_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> row_ind;
  std::vector<Index> mark(static_cast<std::size_t>(n), -1);
  for (Index j = 0; j < n; ++j) {
    const auto start = static_cast<std::ptrdiff_t>(row_ind.size());
    mark[static_cast<std::size_t>(j)] = j;
    row_ind.push_back(j);
    for (Index p = kp[m + j]; p < kp[m + j + 1]; ++p) {
      const Index i = ki[p];
      if (i >= m) continue;  // the diagonal
      for (Index t = kp[i]; t < kp[i + 1]; ++t) {
        const Index other = ki[t] - m;
        if (other < 0 || mark[static_cast<std::size_t>(other)] == j) continue;
        mark[static_cast<std::size_t>(other)] = j;
        row_ind.push_back(other);
      }
    }
    std::sort(row_ind.begin() + start, row_ind.end());
    col_ptr[static_cast<std::size_t>(j) + 1] =
        static_cast<Index>(row_ind.size());
  }
  return linalg::SparseMatrix::from_pattern(n, n, std::move(col_ptr),
                                            std::move(row_ind));
}

}  // namespace

KktSystem::KktSystem(const linalg::SparseMatrix& g)
    : KktSystem(g, Options{}) {}

KktSystem::KktSystem(const linalg::SparseMatrix& g, const Options& options)
    : g_(g), options_(options) {}

void KktSystem::update_matrix_values(const linalg::SparseMatrix& g) {
  BBS_REQUIRE(g.rows() == g_.rows() && g.cols() == g_.cols() &&
                  g.col_ptr() == g_.col_ptr() && g.row_ind() == g_.row_ind(),
              "KktSystem::update_matrix_values: pattern mismatch");
  std::copy(g.values().begin(), g.values().end(), g_.values().begin());
}

void KktSystem::factorise(const NtScaling& scaling) {
  scaling.inverse_times_into(g_, winv_g_);
  const Index m = g_.rows();
  const Index n = g_.cols();
  const std::vector<Index>& bp = winv_g_.col_ptr();

  const bool first = (factor_ == nullptr);
  if (first) {
    // One-time symbolic work: the pattern of K. Cone column i holds its
    // diagonal, then row m + j for every entry (i, j) of W^{-1} G; variable
    // column m + j holds column j of W^{-1} G, then its diagonal. Visiting
    // W^{-1} G by ascending column fills each cone column in row order.
    const std::vector<Index>& bi = winv_g_.row_ind();
    std::vector<Index> col_ptr(static_cast<std::size_t>(m + n) + 1, 0);
    for (const Index r : bi) ++col_ptr[static_cast<std::size_t>(r) + 1];
    for (Index i = 0; i < m; ++i) ++col_ptr[static_cast<std::size_t>(i) + 1];
    for (Index j = 0; j < n; ++j) {
      col_ptr[static_cast<std::size_t>(m + j) + 1] = bp[j + 1] - bp[j] + 1;
    }
    for (Index c = 0; c < m + n; ++c) {
      col_ptr[static_cast<std::size_t>(c) + 1] +=
          col_ptr[static_cast<std::size_t>(c)];
    }
    std::vector<Index> row_ind(static_cast<std::size_t>(col_ptr.back()));
    std::vector<Index> cursor(col_ptr.begin(), col_ptr.begin() + m);
    mirror_slot_.resize(bi.size());
    for (Index i = 0; i < m; ++i) {
      row_ind[static_cast<std::size_t>(cursor[static_cast<std::size_t>(i)]++)] =
          i;
    }
    for (Index j = 0; j < n; ++j) {
      Index slot = col_ptr[static_cast<std::size_t>(m + j)];
      for (Index k = bp[j]; k < bp[j + 1]; ++k) {
        const auto r = static_cast<std::size_t>(bi[static_cast<std::size_t>(k)]);
        mirror_slot_[static_cast<std::size_t>(k)] = cursor[r];
        row_ind[static_cast<std::size_t>(cursor[r]++)] = m + j;
        row_ind[static_cast<std::size_t>(slot++)] = static_cast<Index>(r);
      }
      row_ind[static_cast<std::size_t>(slot)] = m + j;
    }
    k_ = linalg::SparseMatrix::from_pattern(m + n, m + n, std::move(col_ptr),
                                            std::move(row_ind));
  }

  // Values: both copies of W^{-1} G and the regularised diagonal.
  const double delta = options_.static_regularisation;
  const std::vector<Index>& kp = k_.col_ptr();
  const std::vector<double>& bv = winv_g_.values();
  std::vector<double>& kv = k_.values();
  for (Index i = 0; i < m; ++i) {
    kv[static_cast<std::size_t>(kp[i])] = -1.0 - delta;
  }
  for (Index j = 0; j < n; ++j) {
    const Index base = kp[m + j] - bp[j];
    for (Index k = bp[j]; k < bp[j + 1]; ++k) {
      const double value = bv[static_cast<std::size_t>(k)];
      kv[static_cast<std::size_t>(base + k)] = value;
      kv[static_cast<std::size_t>(mirror_slot_[static_cast<std::size_t>(k)])] =
          value;
    }
    kv[static_cast<std::size_t>(kp[m + j + 1] - 1)] = delta;
  }

  if (first) {
    linalg::SparseLdlt::Options fopts;
    fopts.pivot_signs.assign(static_cast<std::size_t>(m + n), 1);
    std::fill(fopts.pivot_signs.begin(), fopts.pivot_signs.begin() + m, -1);
    // A cached analysis, if one was seeded and matches the live pattern,
    // replaces the fill-reducing ordering computation — the dominant
    // symbolic cost. The seed must eliminate the cone rows first, in
    // natural order: any other layout can give an unstable factor. Within
    // that, the order of the variables only affects fill, so a stale hint
    // can at worst degrade fill; the pattern hash rejects that case up front.
    std::unique_ptr<SymbolicAnalysis> seed = std::move(pending_symbolic_);
    bool seeded = false;
    if (seed != nullptr && cached_permutation_.empty()) {
      if (seed->dim == k_.cols() &&
          seed->pattern_hash == pattern_hash_of(k_) &&
          is_cone_first_permutation(seed->permutation, k_.cols(), m)) {
        cached_permutation_ = seed->permutation;
        seeded = true;
      } else {
        ++stats_.symbolic_seed_rejects;
      }
    }
    if (cached_permutation_.empty()) {
      // The cone rows are eliminated first, in natural order: a variable
      // pivot taken earlier would be delta alone, and its update of the
      // cone pivots would grow like ||W^{-1} G||^2 / delta. The variables
      // follow in the fill-reducing order of the Schur complement that
      // eliminating the cone rows leaves, the normal-equation pattern.
      const std::vector<linalg::Index> order = linalg::compute_ordering(
          variable_block_pattern(k_, m), options_.ordering);
      cached_permutation_.resize(static_cast<std::size_t>(m + n));
      for (Index i = 0; i < m; ++i) {
        cached_permutation_[static_cast<std::size_t>(i)] = i;
      }
      for (Index j = 0; j < n; ++j) {
        cached_permutation_[static_cast<std::size_t>(m + j)] =
            m + order[static_cast<std::size_t>(j)];
      }
    }
    fopts.fixed_permutation = &cached_permutation_;
    factor_ = std::make_unique<linalg::SparseLdlt>(k_, fopts);
    if (seeded) {
      // The constructor re-derived the elimination tree and factor column
      // pointers from the seeded permutation (cheap, O(nnz)); disagreement
      // with the cached copies means the entry was stale after all.
      if (factor_->etree_parent() == seed->etree_parent &&
          factor_->factor_col_ptr() == seed->factor_col_ptr) {
        ++stats_.symbolic_loads;
      } else {
        ++stats_.symbolic_seed_rejects;
        ++stats_.symbolic_factorisations;
      }
    } else {
      ++stats_.symbolic_factorisations;
    }
  } else {
    factor_->refactor(k_);
  }
  stats_.dynamic_regularisations += factor_->dynamic_regularisations();
  ++stats_.factorise_calls;
}

void KktSystem::seed_symbolic(SymbolicAnalysis analysis) {
  if (factor_ != nullptr) return;  // symbolic phase already done
  pending_symbolic_ = std::make_unique<SymbolicAnalysis>(std::move(analysis));
}

std::optional<SymbolicAnalysis> KktSystem::export_symbolic() const {
  if (factor_ == nullptr) return std::nullopt;
  SymbolicAnalysis analysis;
  analysis.dim = k_.cols();
  analysis.pattern_hash = pattern_hash_of(k_);
  analysis.permutation = cached_permutation_;
  analysis.etree_parent = factor_->etree_parent();
  analysis.factor_col_ptr = factor_->factor_col_ptr();
  return analysis;
}

void KktSystem::solve(const NtScaling& scaling, const Vector& p,
                      const Vector& q, Vector& u, Vector& v) const {
  BBS_REQUIRE(factor_ != nullptr, "KktSystem::solve before factorise");
  BBS_REQUIRE(p.size() == static_cast<std::size_t>(g_.cols()),
              "KktSystem::solve: p size mismatch");
  BBS_REQUIRE(q.size() == static_cast<std::size_t>(g_.rows()),
              "KktSystem::solve: q size mismatch");
  const auto m = static_cast<std::ptrdiff_t>(q.size());

  // [v~; u] solves K x = [W^{-1} q; p], v = W^{-1} v~. Each refinement
  // round solves K dx = [W^{-1} r2; r1] for the residuals of the
  // unregularised 2x2 system and corrects u and v in place: v accumulates
  // small corrections, which keeps the precision that a fresh W^{-1} v~ of
  // the whole vector loses on an ill-conditioned second-order-cone block.
  const auto solve_into = [&](const Vector& top, const Vector& bottom,
                              Vector& du, Vector& dv) {
    scaling.apply_w_inv_into(top, work_wq_);
    work_x_.resize(work_wq_.size() + bottom.size());
    std::copy(work_wq_.begin(), work_wq_.end(), work_x_.begin());
    std::copy(bottom.begin(), bottom.end(), work_x_.begin() + m);
    factor_->solve(work_x_);
    ++stats_.ldlt_solves;
    du.assign(work_x_.begin() + m, work_x_.end());
    work_wq_.assign(work_x_.begin(), work_x_.begin() + m);
    scaling.apply_w_inv_into(work_wq_, dv);
  };
  solve_into(q, p, u, v);

  const double tol =
      1e-14 * (1.0 + std::max(linalg::norm_inf(p), linalg::norm_inf(q)));
  double last_err = 0.0;
  for (int round = 0; round < options_.refine_steps; ++round) {
    // r1 = p - G'v ; r2 = q - G u + W (W v).
    work_r1_ = p;
    g_.gaxpy_transpose(-1.0, v, work_r1_);
    scaling.apply_w_into(v, work_wq_);
    scaling.apply_w_into(work_wq_, work_r2_);
    for (std::size_t i = 0; i < q.size(); ++i) work_r2_[i] += q[i];
    g_.gaxpy(-1.0, u, work_r2_);
    // Stop at the roundoff floor, or once a round no longer halves the
    // residual: the refinement has stalled at the accuracy this
    // factorisation can deliver, and further rounds only cost solves.
    // A round that made the residual larger (a dynamically regularised
    // pivot can overshoot) is undone, so the better iterate is returned.
    const double err =
        std::max(linalg::norm_inf(work_r1_), linalg::norm_inf(work_r2_));
    if (round > 0 && err > last_err) {
      linalg::axpy(-1.0, work_du_, u);
      linalg::axpy(-1.0, work_dv_, v);
      break;
    }
    if (err <= tol || (round > 0 && err > 0.5 * last_err)) break;
    last_err = err;
    solve_into(work_r2_, work_r1_, work_du_, work_dv_);
    linalg::axpy(1.0, work_du_, u);
    linalg::axpy(1.0, work_dv_, v);
  }
}

Index KktSystem::factor_nnz() const {
  return factor_ ? factor_->factor_nnz() : 0;
}

}  // namespace bbs::solver
