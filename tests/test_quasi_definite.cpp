// Differential tests of the quasi-definite path: seeded quasi-definite
// matrices through the fill-reducing ordering and SparseLdlt with pivot
// signs, and KktSystem::solve against a dense solve of the unreduced 2x2
// system, both checked against the dense LDL^T oracle (no pivoting; a
// quasi-definite matrix is strongly factorisable, Vanderbei 1995).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bbs/common/assert.hpp"
#include "bbs/common/rng.hpp"
#include "bbs/core/program_builder.hpp"
#include "bbs/gen/generators.hpp"
#include "bbs/linalg/dense_cholesky.hpp"
#include "bbs/linalg/ordering.hpp"
#include "bbs/linalg/sparse_ldlt.hpp"
#include "bbs/solver/ipm_solver.hpp"
#include "bbs/solver/kkt_system.hpp"
#include "bbs/solver/nt_scaling.hpp"

namespace bbs::solver {
namespace {

using linalg::DenseLdlt;
using linalg::DenseMatrix;
using linalg::Index;
using linalg::OrderingMethod;
using linalg::SparseLdlt;
using linalg::SparseMatrix;
using linalg::TripletList;

using Edges = std::vector<std::pair<Index, Index>>;

/// A seeded quasi-definite matrix on an edge pattern: every node gets a
/// sign, the off-diagonal entries are random, and each diagonal is
/// sign * (delta + the absolute row sum over same-sign neighbours), so both
/// sign blocks are diagonally dominant (definite) and a node without
/// same-sign neighbours carries a bare +-delta.
struct QdMatrix {
  std::string name;
  SparseMatrix a;
  std::vector<signed char> signs;
};

QdMatrix quasi_definite(Rng& rng, std::string name, Index n, const Edges& edges,
                        const std::vector<signed char>& signs, double delta) {
  std::vector<double> same_sign(static_cast<std::size_t>(n), 0.0);
  TripletList t(n, n);
  for (const auto& [i, j] : edges) {
    if (i == j) continue;
    const double value = rng.next_real(-1.0, 1.0);
    t.add(i, j, value);
    t.add(j, i, value);
    if (signs[static_cast<std::size_t>(i)] ==
        signs[static_cast<std::size_t>(j)]) {
      same_sign[static_cast<std::size_t>(i)] += std::abs(value);
      same_sign[static_cast<std::size_t>(j)] += std::abs(value);
    }
  }
  for (Index i = 0; i < n; ++i) {
    t.add(i, i,
          signs[static_cast<std::size_t>(i)] *
              (delta + 2.0 * same_sign[static_cast<std::size_t>(i)]));
  }
  return {std::move(name), SparseMatrix::from_triplets(t), signs};
}

std::vector<signed char> random_signs(Rng& rng, Index n) {
  std::vector<signed char> signs(static_cast<std::size_t>(n));
  for (auto& s : signs) s = rng.next_int(0, 1) == 0 ? -1 : 1;
  return signs;
}

/// Arrowheads, chains, grids and random blocks, each at delta 1 and 0.1.
std::vector<QdMatrix> quasi_definite_matrices() {
  Rng rng(2024);
  std::vector<QdMatrix> out;
  for (const double delta : {1.0, 0.1}) {
    const std::string tag = delta == 1.0 ? "/d1" : "/d0.1";
    {
      const Index n = 30;
      Edges edges;
      for (Index i = 1; i < n; ++i) edges.emplace_back(0, i);
      out.push_back(quasi_definite(rng, "arrowhead" + tag, n, edges,
                                   random_signs(rng, n), delta));
    }
    {
      const Index n = 40;
      Edges edges;
      for (Index i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
      // Alternating signs: every off-diagonal couples the two blocks.
      std::vector<signed char> signs(static_cast<std::size_t>(n));
      for (Index i = 0; i < n; ++i) signs[static_cast<std::size_t>(i)] = i % 2 ? 1 : -1;
      out.push_back(quasi_definite(rng, "chain" + tag, n, edges, signs, delta));
    }
    {
      const Index side = 7;
      Edges edges;
      for (Index r = 0; r < side; ++r) {
        for (Index c = 0; c < side; ++c) {
          if (c + 1 < side) edges.emplace_back(r * side + c, r * side + c + 1);
          if (r + 1 < side) edges.emplace_back(r * side + c, (r + 1) * side + c);
        }
      }
      out.push_back(quasi_definite(rng, "grid" + tag, side * side, edges,
                                   random_signs(rng, side * side), delta));
    }
    for (int trial = 0; trial < 3; ++trial) {
      // A KKT-shaped block matrix: m negative rows first, n positive
      // columns after, random coupling between them.
      const Index m = static_cast<Index>(rng.next_int(2, 30));
      const Index n = static_cast<Index>(rng.next_int(1, 20));
      Edges edges;
      for (int e = 0; e < 3 * (m + n); ++e) {
        edges.emplace_back(static_cast<Index>(rng.next_int(0, m - 1)),
                           m + static_cast<Index>(rng.next_int(0, n - 1)));
      }
      for (int e = 0; e < m / 2; ++e) {
        edges.emplace_back(static_cast<Index>(rng.next_int(0, m - 1)),
                           static_cast<Index>(rng.next_int(0, m - 1)));
      }
      std::vector<signed char> signs(static_cast<std::size_t>(m + n), 1);
      for (Index i = 0; i < m; ++i) signs[static_cast<std::size_t>(i)] = -1;
      out.push_back(quasi_definite(rng,
                                   "blocks" + std::to_string(trial) + tag,
                                   m + n, edges, signs, delta));
    }
  }
  return out;
}

SparseLdlt factor_signed(const QdMatrix& m, const std::vector<Index>& perm) {
  SparseLdlt::Options options;
  options.fixed_permutation = &perm;
  options.pivot_signs = m.signs;
  return SparseLdlt(m.a, options);
}

class QuasiDefiniteDifferential
    : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(QuasiDefiniteDifferential, SignedLdltMatchesDenseOracle) {
  for (const QdMatrix& m : quasi_definite_matrices()) {
    SCOPED_TRACE(m.name + " / " + linalg::ordering_name(GetParam()));
    const auto n = static_cast<std::size_t>(m.a.rows());
    const std::vector<Index> perm = linalg::compute_ordering(m.a, GetParam());
    ASSERT_EQ(perm.size(), n);
    ASSERT_TRUE(linalg::is_permutation(perm));

    SparseLdlt f = factor_signed(m, perm);
    // Well-conditioned draws: every pivot has its expected sign already.
    EXPECT_EQ(f.dynamic_regularisations(), 0);
    int negative = 0;
    for (const signed char s : m.signs) negative += s < 0 ? 1 : 0;
    EXPECT_EQ(f.negative_pivots(), negative);

    Rng rng(n + 7);
    Vector b(n);
    for (double& v : b) v = rng.next_real(-1.0, 1.0);
    Vector x = b;
    f.solve(x);
    Vector oracle = b;
    DenseLdlt(m.a.to_dense()).solve(oracle);
    Vector residual = m.a.multiply(x);
    for (std::size_t i = 0; i < n; ++i) residual[i] -= b[i];
    EXPECT_LE(linalg::norm2(residual), 1e-10 * std::max(1.0, linalg::norm2(b)));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], oracle[i], 1e-9 * (1.0 + std::abs(oracle[i])));
    }

    // refactor() on new values reproduces a fresh factorisation bit for bit.
    QdMatrix scaled = m;
    for (double& v : scaled.a.values()) v *= 1.5;
    f.refactor(scaled.a);
    const SparseLdlt fresh = factor_signed(scaled, perm);
    EXPECT_EQ(f.factor_values(), fresh.factor_values());
    EXPECT_EQ(f.diagonal(), fresh.diagonal());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, QuasiDefiniteDifferential,
    ::testing::Values(OrderingMethod::kNatural,
                      OrderingMethod::kApproximateMinimumDegree));

TEST(QuasiDefinite, WrongSignedAndZeroPivotsAreRegularisedNotThrown) {
  // diag(+1, 0, -2) against expected signs (-, +, -): the first pivot has
  // the wrong sign, the second is zero, the third is fine.
  TripletList t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 0.0);
  t.add(2, 2, -2.0);
  const SparseMatrix a = SparseMatrix::from_triplets(t);
  SparseLdlt::Options options;
  options.ordering = OrderingMethod::kNatural;
  options.pivot_signs = {-1, 1, -1};
  const SparseLdlt f(a, options);
  EXPECT_EQ(f.dynamic_regularisations(), 2);
  constexpr double kDyn = SparseLdlt::kDynamicRegularisation;
  EXPECT_EQ(f.diagonal(), (std::vector<double>{-kDyn, kDyn, -2.0}));
  // Without signs the zero pivot throws.
  EXPECT_THROW(SparseLdlt{a}, NumericalError);
}

// ---------------------------------------------------------------------------
// KktSystem against the dense 2x2 system
// ---------------------------------------------------------------------------

/// Solves [[-W^2, G], [G', 0]] [v; u] = [q; p] densely: the unreduced KKT
/// system, whose -W^2 block is negative definite and whose Schur complement
/// G' W^{-2} G is positive definite when G has full column rank.
void dense_kkt_solve(const SparseMatrix& g, const NtScaling& scaling,
                     const Vector& p, const Vector& q, Vector& u, Vector& v) {
  const auto m = static_cast<std::size_t>(g.rows());
  const auto n = static_cast<std::size_t>(g.cols());
  DenseMatrix k(m + n, m + n);
  for (std::size_t c = 0; c < m; ++c) {
    Vector e(m, 0.0);
    e[c] = 1.0;
    const Vector w2e = scaling.apply_w(scaling.apply_w(e));
    for (std::size_t r = 0; r < m; ++r) k(r, c) = -w2e[r];
  }
  const DenseMatrix gd = g.to_dense();
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      k(r, m + c) = gd(r, c);
      k(m + c, r) = gd(r, c);
    }
  }
  Vector x(m + n);
  std::copy(q.begin(), q.end(), x.begin());
  std::copy(p.begin(), p.end(), x.begin() + static_cast<std::ptrdiff_t>(m));
  DenseLdlt(k, 0.0).solve(x);
  v.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(m));
  u.assign(x.begin() + static_cast<std::ptrdiff_t>(m), x.end());
}

/// Residual of the 2x2 system relative to its right-hand side.
double relative_residual(const SparseMatrix& g, const NtScaling& scaling,
                         const Vector& p, const Vector& q, const Vector& u,
                         const Vector& v) {
  Vector r1 = p;
  g.gaxpy_transpose(-1.0, v, r1);
  Vector r2 = scaling.apply_w(scaling.apply_w(v));
  for (std::size_t i = 0; i < q.size(); ++i) r2[i] += q[i];
  g.gaxpy(-1.0, u, r2);
  const double scale =
      1.0 + std::max(linalg::norm_inf(p), linalg::norm_inf(q));
  return std::max(linalg::norm_inf(r1), linalg::norm_inf(r2)) / scale;
}

double relative_gap(const Vector& a, const Vector& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) gap = std::max(gap, std::abs(a[i] - b[i]));
  return gap / (1.0 + linalg::norm_inf(b));
}

/// G = [I_n; R] for a random sparse R: full column rank by construction.
SparseMatrix random_g(Rng& rng, Index n, Index extra_rows, int extra_entries) {
  TripletList t(n + extra_rows, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 1.0);
  for (int e = 0; e < extra_entries; ++e) {
    t.add(n + static_cast<Index>(rng.next_int(0, extra_rows - 1)),
          static_cast<Index>(rng.next_int(0, n - 1)), rng.next_real(-2.0, 2.0));
  }
  return SparseMatrix::from_triplets(t);
}

Vector random_vector(Rng& rng, Index size) {
  Vector x(static_cast<std::size_t>(size));
  for (double& v : x) v = rng.next_real(-1.0, 1.0);
  return x;
}

TEST(KktSystemDifferential, MatchesDenseSolveAtRandomInteriorPoints) {
  Rng rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    const ConeSpec cone(static_cast<Index>(rng.next_int(4, 12)),
                        {3, static_cast<Index>(rng.next_int(2, 5))});
    const Index n = static_cast<Index>(rng.next_int(2, 4));
    const SparseMatrix g = random_g(rng, n, cone.dim() - n, 3 * cone.dim());
    NtScaling scaling(cone);
    KktSystem kkt(g);
    scaling.update(random_interior_point(cone, rng),
                   random_interior_point(cone, rng));
    kkt.factorise(scaling);
    const Vector p = random_vector(rng, n);
    const Vector q = random_vector(rng, cone.dim());
    Vector u, v, u_ref, v_ref;
    kkt.solve(scaling, p, q, u, v);
    dense_kkt_solve(g, scaling, p, q, u_ref, v_ref);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_LE(relative_residual(g, scaling, p, q, u, v), 1e-12);
    EXPECT_LE(relative_gap(u, u_ref), 1e-9);
    EXPECT_LE(relative_gap(v, v_ref), 1e-9);
    EXPECT_EQ(kkt.stats().dynamic_regularisations, 0);

    // The factor is that of K with the cone rows first, in natural order.
    const std::optional<SymbolicAnalysis> analysis = kkt.export_symbolic();
    ASSERT_TRUE(analysis.has_value());
    ASSERT_TRUE(linalg::is_permutation(analysis->permutation));
    for (Index i = 0; i < cone.dim(); ++i) {
      EXPECT_EQ(analysis->permutation[static_cast<std::size_t>(i)], i);
    }

    // A reused factorisation solves bit for bit like a fresh one.
    scaling.update(random_interior_point(cone, rng),
                   random_interior_point(cone, rng));
    kkt.factorise(scaling);
    KktSystem fresh(g);
    fresh.factorise(scaling);
    Vector u_fresh, v_fresh;
    kkt.solve(scaling, p, q, u, v);
    fresh.solve(scaling, p, q, u_fresh, v_fresh);
    EXPECT_EQ(u, u_fresh);
    EXPECT_EQ(v, v_fresh);
  }
}

TEST(KktSystemDifferential, SeedThatDoesNotEliminateConeRowsFirstIsRejected) {
  Rng rng(23);
  const ConeSpec cone(6, {3});
  const Index n = 3;
  const SparseMatrix g = random_g(rng, n, cone.dim() - n, 20);
  NtScaling scaling(cone);
  scaling.update(random_interior_point(cone, rng),
                 random_interior_point(cone, rng));
  KktSystem reference(g);
  reference.factorise(scaling);
  const SymbolicAnalysis analysis = *reference.export_symbolic();
  const auto m = static_cast<std::size_t>(cone.dim());

  // Valid permutations of K with the right pattern hash, but the first one
  // moves a variable ahead of a cone row and the second reorders two cone
  // rows: neither may be used.
  std::vector<std::vector<Index>> shuffled(2, analysis.permutation);
  std::swap(shuffled[0][0], shuffled[0][m]);
  std::swap(shuffled[1][0], shuffled[1][1]);
  for (const std::vector<Index>& perm : shuffled) {
    ASSERT_TRUE(linalg::is_permutation(perm));
    SymbolicAnalysis seed = analysis;
    seed.permutation = perm;
    KktSystem kkt(g);
    kkt.seed_symbolic(seed);
    kkt.factorise(scaling);
    EXPECT_EQ(kkt.stats().symbolic_seed_rejects, 1);
    EXPECT_EQ(kkt.stats().symbolic_loads, 0);
    EXPECT_EQ(kkt.stats().symbolic_factorisations, 1);
    EXPECT_EQ(kkt.export_symbolic()->permutation, analysis.permutation);
  }

  // The unshuffled analysis is accepted.
  KktSystem kkt(g);
  kkt.seed_symbolic(analysis);
  kkt.factorise(scaling);
  EXPECT_EQ(kkt.stats().symbolic_seed_rejects, 0);
  EXPECT_EQ(kkt.stats().symbolic_loads, 1);
}

TEST(KktSystemDifferential, RefinementRoundThatOvershootsIsUndone) {
  // One nonnegative row, W = I, G = [0.1]. A negative static regularisation
  // drives the variable pivot to the wrong sign (-0.48); the dynamic
  // regularisation replaces it with +7e-8, and the first refinement round
  // against the true system overshoots. Refinement must never return an
  // iterate worse than the plain solve.
  const ConeSpec cone(1, {});
  TripletList t(1, 1);
  t.add(0, 0, 0.1);
  const SparseMatrix g = SparseMatrix::from_triplets(t);
  NtScaling scaling(cone);
  scaling.update(Vector{1.0}, Vector{1.0});
  const Vector p{1.0};
  const Vector q{0.5};
  const auto residual_after = [&](int rounds) {
    KktSystem::Options options;
    options.static_regularisation = -0.5;
    options.refine_steps = rounds;
    KktSystem kkt(g, options);
    kkt.factorise(scaling);
    EXPECT_EQ(kkt.stats().dynamic_regularisations, 1);
    Vector u, v;
    kkt.solve(scaling, p, q, u, v);
    return relative_residual(g, scaling, p, q, u, v);
  };
  const double plain = residual_after(0);
  EXPECT_LE(residual_after(6), plain * (1.0 + 1e-9));
}

gen::GenParams params48() {
  gen::GenParams params;
  params.num_processors = 8;
  params.seed = 5;
  return params;
}

TEST(KktSystemDifferential, MatchesDenseSolveAtFinalIterates) {
  // The scaling of an optimal iterate is the worst conditioned one an
  // interior-point solve factorises: complementary s and z drive W towards
  // 0 and infinity on the active and inactive constraints.
  const std::vector<std::pair<std::string, model::Configuration>> configs = {
      {"chain48", gen::make_chain(48, params48())},
      {"dag48", gen::make_random_dag(48, 0.5, params48())},
      {"car", gen::car_entertainment_preset()}};
  Rng rng(91);
  for (const auto& [name, config] : configs) {
    SCOPED_TRACE(name);
    const core::BuiltProgram program = core::build_algorithm1(config);
    const ConicProblem& problem = program.problem;
    const SolveResult result = IpmSolver().solve(problem);
    ASSERT_EQ(result.status, SolveStatus::kOptimal);
    NtScaling scaling(problem.cone());
    scaling.update(result.s, result.z);
    KktSystem kkt(problem.g());
    kkt.factorise(scaling);
    const Vector p = random_vector(rng, problem.g().cols());
    const Vector q = random_vector(rng, problem.g().rows());
    Vector u, v, u_ref, v_ref;
    kkt.solve(scaling, p, q, u, v);
    dense_kkt_solve(problem.g(), scaling, p, q, u_ref, v_ref);
    const double residual = relative_residual(problem.g(), scaling, p, q, u, v);
    const double ref_residual =
        relative_residual(problem.g(), scaling, p, q, u_ref, v_ref);
    // At least as accurate as the dense oracle, up to a small factor. Both
    // residuals sit at the roundoff floor of this conditioning (1e-7 to
    // 1e-5 relative), and the directions' forward gap is that floor times
    // the conditioning of the final scaling (up to ~1e-4 on the car preset).
    EXPECT_LE(residual, std::max(1e-10, 10.0 * ref_residual));
    EXPECT_LE(relative_gap(u, u_ref), 1e-3);
    EXPECT_LE(relative_gap(v, v_ref), 1e-3);
  }
}

}  // namespace
}  // namespace bbs::solver
