// KKT solve for the interior-point method.
//
// Each Newton step requires solutions (u, v) of
//
//     G' v           = p
//     G  u - W^2 v   = q
//
// with the Nesterov-Todd scaling W of the cone. In the scaled variable
// v~ = W v this is the symmetric quasi-definite system (Vanderbei 1995; the
// design of ECOS, Domahidi, Chu & Boyd 2013)
//
//     [ -I        W^{-1} G ] [ v~ ]   [ W^{-1} q ]
//     [ G' W^{-1}     0    ] [ u  ] = [    p     ],      v = W^{-1} v~.
//
// One LDL^T factors the regularised matrix
//
//     K = [ -(1 + delta) I   W^{-1} G ]
//         [  G' W^{-1}       delta I  ]
//
// with the static regularisation delta; a pivot that roundoff still drives
// to the wrong sign or to zero is replaced by +-delta_dyn (the dynamic
// regularisation of SparseLdlt's pivot signs: -1 on the cone rows, +1 on the
// variables).
//
// The cone rows come first in K and are always eliminated first, in natural
// order: a variable pivot taken before its cone rows would be delta alone,
// and its update of their pivots would grow like ||W^{-1} G||^2 / delta.
// The cone block is diagonal, so every cone pivot is exactly -(1 + delta)
// and its sign never trips the dynamic regularisation. The variable block
// left after them is delta I + G' W^{-2} G / (1 + delta): the factor is the
// normal-equation Cholesky, conditioning squared as before, built through
// the augmented pattern so that the LDL^T forms the product itself, in the
// configured ordering (natural or AMD) of the normal-equation pattern.
//
// Iterative refinement runs against the unregularised 2x2 system, at one
// LDL^T solve per round, and removes both perturbations and the roundoff of
// the factorisation; a round that makes the residual larger is undone. That
// loop is what the augmented form buys: the normal-equation path it replaced
// ran two nested refinement loops, eight triangular solves per KKT solve.
//
// The sparsity pattern of K is identical on every interior-point iteration,
// so all symbolic work happens exactly once, on the first factorise() call:
// the fixed pattern of W^{-1} G (NtScaling::inverse_times_into) and of K,
// the fill-reducing ordering (approximate minimum degree, near-linear in
// the pattern size, so a cold solve's symbolic work is a small share of its
// first iteration), and the LDL^T elimination-tree analysis. Every later
// factorise() updates values in place and runs a numeric-only
// refactorisation — no triplet assembly, no reallocation.
//
// Not reentrant: solve() is logically const but shares internal workspaces,
// so a KktSystem instance must not be used from multiple threads
// concurrently (distinct instances are independent).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "bbs/linalg/ordering.hpp"
#include "bbs/linalg/sparse_ldlt.hpp"
#include "bbs/linalg/sparse_matrix.hpp"
#include "bbs/solver/nt_scaling.hpp"

namespace bbs::solver {

/// The pure-in-the-structure result of the one-time symbolic analysis: the
/// fill-reducing permutation of the augmented matrix K plus the derived
/// elimination tree and factor column pointers. `pattern_hash` fingerprints
/// the sparsity pattern of K the analysis was computed for, so a
/// seeded KktSystem can reject a stale hint cheaply. Serialisable — this is
/// the payload of the persistent structure cache.
struct SymbolicAnalysis {
  linalg::Index dim = 0;
  std::uint64_t pattern_hash = 0;
  std::vector<linalg::Index> permutation;
  std::vector<linalg::Index> etree_parent;
  std::vector<linalg::Index> factor_col_ptr;
};

class KktSystem {
 public:
  struct Options {
    linalg::OrderingMethod ordering =
        linalg::OrderingMethod::kApproximateMinimumDegree;
    /// Static regularisation delta on the diagonal of K (absolute: the
    /// cone block is -I, and the problem data are equilibrated). It only
    /// guards the variable block, whose Schur complement is positive
    /// definite when G has full column rank; a larger delta slows the
    /// refinement on variables that only inactive constraints touch.
    double static_regularisation = 1e-12;
    /// Most rounds of iterative refinement against the unregularised
    /// system. The rounds stop early once the residual is at the roundoff
    /// floor, 1e-14 (1 + ||[p; q]||_inf), or a round fails to halve it (a
    /// round that makes it larger is undone).
    int refine_steps = 6;
  };

  /// Counters exposing the symbolic-reuse invariant: after the first
  /// factorise() call, every later call is numeric-only.
  struct Stats {
    int factorise_calls = 0;
    /// Symbolic analyses performed (ordering + elimination tree + pattern
    /// caches). Stays at 1 across all interior-point iterations — and at 0
    /// when the analysis was seeded from a cached SymbolicAnalysis.
    int symbolic_factorisations = 0;
    /// Symbolic analyses loaded from a seeded SymbolicAnalysis instead of
    /// being derived (the fill-reducing ordering — the dominant symbolic
    /// cost — is skipped; the cheap elimination-tree rebuild doubles as
    /// verification of the cached entry).
    int symbolic_loads = 0;
    /// Seeds offered via seed_symbolic() that failed validation (dimension
    /// or pattern-hash mismatch, a permutation that is invalid or does not
    /// eliminate the cone rows first, or an etree/col-ptr disagreement) and
    /// fell back to a full derivation.
    int symbolic_seed_rejects = 0;
    /// LDL^T solves: one per solve() plus one per refinement round.
    std::int64_t ldlt_solves = 0;
    /// Pivots replaced by the dynamic regularisation, over all
    /// factorisations.
    std::int64_t dynamic_regularisations = 0;
  };

  explicit KktSystem(const linalg::SparseMatrix& g);
  KktSystem(const linalg::SparseMatrix& g, const Options& options);

  /// Re-assembles and re-factorises K for a new scaling.
  /// The first call performs the symbolic analysis; later calls only update
  /// values in place. A NumericalError thrown here invalidates the previous
  /// factorisation (it is overwritten in place): solve() then throws until a
  /// later factorise() succeeds.
  void factorise(const NtScaling& scaling);

  /// Replaces the numeric values of G in place. `g` must carry exactly the
  /// sparsity pattern this system was built from (ContractViolation
  /// otherwise). All symbolic state — the pattern of K, ordering,
  /// elimination tree — stays valid, so repeated solves of a structurally
  /// identical problem with different coefficients (trade-off sweeps,
  /// binary searches) never re-run the symbolic analysis; the next
  /// factorise() call picks up the new values through the numeric-only
  /// path.
  void update_matrix_values(const linalg::SparseMatrix& g);

  /// Solves the 2x2 system above. `p` has num_vars entries, `q` has
  /// cone-dimension entries. Must be called after factorise().
  void solve(const NtScaling& scaling, const Vector& p, const Vector& q,
             Vector& u, Vector& v) const;

  /// Fill-in statistics of the last factorisation (for the ordering bench).
  Index factor_nnz() const;

  /// Adjusts the static regularisation used by subsequent factorise() calls.
  /// Purely numeric: the diagonal is part of the fixed pattern of K, so
  /// no symbolic state is touched — the recovery ladder bumps and restores
  /// this without ever re-running the analysis.
  void set_static_regularisation(double value) {
    options_.static_regularisation = value;
  }
  double static_regularisation() const {
    return options_.static_regularisation;
  }

  /// Offers a cached symbolic analysis for the first factorise() call. Must
  /// be called before the first factorise(); the hint is validated there
  /// (dimension, pattern hash, a cone-first permutation) and silently
  /// discarded — with a symbolic_seed_rejects count — if it does not match
  /// the actual pattern of K. A valid seed replaces the fill-reducing
  /// ordering computation; it fixes only the order of the variables, which
  /// affects fill but not the stability of the factor.
  void seed_symbolic(SymbolicAnalysis analysis);

  /// Exports the symbolic analysis after the first factorise() (nullopt
  /// before it). The result is pure in the problem structure and safe to
  /// persist and re-seed into a future KktSystem for the same structure.
  std::optional<SymbolicAnalysis> export_symbolic() const;

  const Stats& stats() const { return stats_; }

 private:
  linalg::SparseMatrix g_;
  Options options_;
  linalg::SparseMatrix winv_g_;  // W^{-1} G on its fixed pattern
  /// The regularised K (full symmetric pattern, cone rows first) and, per
  /// value slot of winv_g_, its mirror slot in the cone-row columns of K
  /// (the slot in the variable columns is the same offset in column m + j).
  linalg::SparseMatrix k_;
  std::vector<Index> mirror_slot_;
  std::unique_ptr<linalg::SparseLdlt> factor_;
  /// Fill-reducing permutation, computed on the first factorisation and
  /// reused afterwards (the pattern of K is iteration-invariant).
  std::vector<linalg::Index> cached_permutation_;
  /// Cached analysis offered via seed_symbolic(), consumed (validated or
  /// rejected) by the first factorise().
  std::unique_ptr<SymbolicAnalysis> pending_symbolic_;
  mutable Stats stats_;
  // Solve workspaces (mutable: solve() is logically const and runs several
  // times per interior-point iteration).
  mutable Vector work_x_;
  mutable Vector work_du_;
  mutable Vector work_dv_;
  mutable Vector work_r1_;
  mutable Vector work_r2_;
  mutable Vector work_wq_;
};

}  // namespace bbs::solver
