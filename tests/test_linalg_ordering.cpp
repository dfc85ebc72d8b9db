// Tests for the fill-reducing orderings: permutation validity, fill
// reduction on structured patterns, handling of disconnected graphs, and a
// differential check of the whole ordering -> SparseLdlt path against the
// dense Cholesky oracle on seeded random and normal-equation patterns.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bbs/common/rng.hpp"
#include "bbs/core/program_builder.hpp"
#include "bbs/gen/generators.hpp"
#include "bbs/linalg/dense_cholesky.hpp"
#include "bbs/linalg/ordering.hpp"
#include "bbs/linalg/sparse_ldlt.hpp"
#include "bbs/solver/kkt_system.hpp"
#include "bbs/solver/nt_scaling.hpp"

namespace bbs::linalg {
namespace {

/// Arrowhead pattern: dense first row/column + diagonal. Natural ordering
/// fills in completely; any sensible ordering eliminates the hub last.
SparseMatrix arrowhead(Index n) {
  TripletList t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 4.0 + static_cast<double>(n));
  for (Index i = 1; i < n; ++i) {
    t.add(0, i, 1.0);
    t.add(i, 0, 1.0);
  }
  return SparseMatrix::from_triplets(t);
}

/// 1-D Laplacian (tridiagonal): already ideally ordered.
SparseMatrix tridiagonal(Index n) {
  TripletList t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 2.0);
  for (Index i = 0; i + 1 < n; ++i) {
    t.add(i, i + 1, -1.0);
    t.add(i + 1, i, -1.0);
  }
  return SparseMatrix::from_triplets(t);
}

class OrderingValidity : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(OrderingValidity, ProducesPermutationOnRandomPatterns) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Index n = static_cast<Index>(rng.next_int(1, 40));
    TripletList t(n, n);
    for (Index i = 0; i < n; ++i) t.add(i, i, 1.0);
    for (int e = 0; e < 2 * n; ++e) {
      const Index r = static_cast<Index>(rng.next_int(0, n - 1));
      const Index c = static_cast<Index>(rng.next_int(0, n - 1));
      t.add(r, c, 1.0);
      t.add(c, r, 1.0);
    }
    const SparseMatrix a = SparseMatrix::from_triplets(t);
    const auto perm = compute_ordering(a, GetParam());
    EXPECT_TRUE(is_permutation(perm)) << ordering_name(GetParam());
  }
}

TEST_P(OrderingValidity, HandlesDisconnectedGraphs) {
  // Two disjoint cliques of 3 + two isolated vertices.
  TripletList t(8, 8);
  for (Index i = 0; i < 8; ++i) t.add(i, i, 1.0);
  for (Index i = 0; i < 3; ++i)
    for (Index j = 0; j < 3; ++j)
      if (i != j) t.add(i, j, 1.0);
  for (Index i = 3; i < 6; ++i)
    for (Index j = 3; j < 6; ++j)
      if (i != j) t.add(i, j, 1.0);
  const SparseMatrix a = SparseMatrix::from_triplets(t);
  EXPECT_TRUE(is_permutation(compute_ordering(a, GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, OrderingValidity,
    ::testing::Values(OrderingMethod::kNatural,
                      OrderingMethod::kApproximateMinimumDegree));

TEST(MinimumDegree, BeatsNaturalOnArrowhead) {
  const SparseMatrix a = arrowhead(40);
  SparseLdlt::Options natural;
  natural.ordering = OrderingMethod::kNatural;
  SparseLdlt::Options amd;
  amd.ordering = OrderingMethod::kApproximateMinimumDegree;
  const SparseLdlt f_nat(a, natural);
  const SparseLdlt f_amd(a, amd);
  // Natural ordering eliminates the dense hub first -> complete fill-in;
  // AMD defers it -> zero fill (tree).
  EXPECT_EQ(f_nat.factor_nnz(), 39 * 40 / 2);
  EXPECT_EQ(f_amd.factor_nnz(), 39);
  EXPECT_EQ(f_amd.permutation().back(), 0);  // the hub goes last
}

TEST(Amd, NoFillOnTridiagonal) {
  const SparseMatrix a = tridiagonal(30);
  SparseLdlt::Options opts;
  opts.ordering = OrderingMethod::kApproximateMinimumDegree;
  const SparseLdlt f(a, opts);
  EXPECT_EQ(f.factor_nnz(), 29);  // a path has a fill-free order
}

TEST(Amd, OrdersEmptyAndSingletonPatterns) {
  EXPECT_TRUE(compute_ordering(SparseMatrix::from_triplets(TripletList(0, 0)),
                               OrderingMethod::kApproximateMinimumDegree)
                  .empty());
  // Columns with no stored entry at all (not even a diagonal).
  TripletList t(5, 5);
  t.add(1, 3, 1.0);
  t.add(3, 1, 1.0);
  const auto perm = compute_ordering(SparseMatrix::from_triplets(t),
                                     OrderingMethod::kApproximateMinimumDegree);
  EXPECT_TRUE(is_permutation(perm));
  EXPECT_EQ(perm.size(), 5u);
  TripletList one(1, 1);
  one.add(0, 0, 2.0);
  EXPECT_EQ(compute_ordering(SparseMatrix::from_triplets(one),
                             OrderingMethod::kApproximateMinimumDegree),
            std::vector<Index>{0});
}

TEST(Amd, ReadsOneTriangleAsTheSymmetricPattern) {
  // The upper triangle alone orders exactly like the full pattern.
  const SparseMatrix full = arrowhead(12);
  TripletList upper(12, 12);
  for (Index c = 0; c < full.cols(); ++c) {
    for (Index k = full.col_ptr()[c]; k < full.col_ptr()[c + 1]; ++k) {
      if (full.row_ind()[k] <= c) upper.add(full.row_ind()[k], c, 1.0);
    }
  }
  EXPECT_EQ(compute_ordering(SparseMatrix::from_triplets(upper),
                             OrderingMethod::kApproximateMinimumDegree),
            compute_ordering(full, OrderingMethod::kApproximateMinimumDegree));
}

TEST(IsPermutation, DetectsInvalid) {
  EXPECT_TRUE(is_permutation({}));
  EXPECT_TRUE(is_permutation({0}));
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 0}));
  EXPECT_FALSE(is_permutation({1, 2}));
  EXPECT_FALSE(is_permutation({-1, 0}));
}

TEST(OrderingName, AllNamed) {
  EXPECT_STREQ(ordering_name(OrderingMethod::kNatural), "natural");
  EXPECT_STREQ(ordering_name(OrderingMethod::kApproximateMinimumDegree),
               "amd");
}

// ---------------------------------------------------------------------------
// Differential: compute_ordering -> SparseLdlt against dense Cholesky
// ---------------------------------------------------------------------------

/// A symmetric, strictly diagonally dominant (hence SPD) matrix on the
/// undirected edge set `edges` of an n-node graph.
SparseMatrix spd_on_edges(Rng& rng, Index n,
                          const std::vector<std::pair<Index, Index>>& edges) {
  TripletList t(n, n);
  std::vector<double> row_sum(static_cast<std::size_t>(n), 0.0);
  for (const auto& [r, c] : edges) {
    if (r == c) continue;
    const double v = rng.next_real(-1.0, 1.0);
    t.add(r, c, v);
    t.add(c, r, v);
    row_sum[static_cast<std::size_t>(r)] += std::abs(v);
    row_sum[static_cast<std::size_t>(c)] += std::abs(v);
  }
  for (Index i = 0; i < n; ++i) {
    t.add(i, i, 2.0 * row_sum[static_cast<std::size_t>(i)] + 1.0);
  }
  return SparseMatrix::from_triplets(t);
}

struct Pattern {
  std::string name;
  SparseMatrix a;
};

/// Seeded random patterns of every shape the ordering has to survive.
std::vector<Pattern> random_patterns() {
  Rng rng(2024);
  std::vector<Pattern> out;
  using Edges = std::vector<std::pair<Index, Index>>;
  const auto random_edges = [&rng](Index n, int count, Edges& edges) {
    for (int e = 0; e < count; ++e) {
      edges.emplace_back(static_cast<Index>(rng.next_int(0, n - 1)),
                         static_cast<Index>(rng.next_int(0, n - 1)));
    }
  };
  for (int trial = 0; trial < 4; ++trial) {
    // Arrowhead with a few dense hubs over a sparse random background.
    const Index n = static_cast<Index>(rng.next_int(20, 120));
    Edges edges;
    random_edges(n, static_cast<int>(n), edges);
    for (int h = 0; h < 1 + trial; ++h) {
      const Index hub = static_cast<Index>(rng.next_int(0, n - 1));
      for (Index i = 0; i < n; ++i) edges.emplace_back(hub, i);
    }
    out.push_back({"arrowhead" + std::to_string(trial),
                   spd_on_edges(rng, n, edges)});
  }
  for (const Index n : {2, 17, 150}) {
    // Chain in a shuffled numbering.
    std::vector<Index> label(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
    for (Index i = n - 1; i > 0; --i) {
      std::swap(label[static_cast<std::size_t>(i)],
                label[static_cast<std::size_t>(rng.next_int(0, i))]);
    }
    Edges edges;
    for (Index i = 0; i + 1 < n; ++i) {
      edges.emplace_back(label[static_cast<std::size_t>(i)],
                         label[static_cast<std::size_t>(i + 1)]);
    }
    out.push_back({"chain" + std::to_string(n), spd_on_edges(rng, n, edges)});
  }
  for (const Index k : {3, 8, 15}) {
    // k x k five-point grid.
    Edges edges;
    for (Index r = 0; r < k; ++r) {
      for (Index c = 0; c < k; ++c) {
        if (c + 1 < k) edges.emplace_back(r * k + c, r * k + c + 1);
        if (r + 1 < k) edges.emplace_back(r * k + c, (r + 1) * k + c);
      }
    }
    out.push_back(
        {"grid" + std::to_string(k), spd_on_edges(rng, k * k, edges)});
  }
  {
    // Disconnected parts with isolated (diagonal-only) columns between them.
    const Index n = 90;
    Edges edges;
    for (Index part = 0; part < 3; ++part) {
      const Index base = part * 30;
      for (int e = 0; e < 40; ++e) {
        edges.emplace_back(base + static_cast<Index>(rng.next_int(0, 24)),
                           base + static_cast<Index>(rng.next_int(0, 24)));
      }
    }
    out.push_back({"disconnected", spd_on_edges(rng, n, edges)});
  }
  out.push_back({"n1", spd_on_edges(rng, 1, {})});
  {
    // Rows above the dense threshold (max(16, 10 sqrt(n)) = 173 at n = 300)
    // plus a random background: they are deferred to the end.
    const Index n = 300;
    Edges edges;
    random_edges(n, 600, edges);
    for (const Index hub : {7, 150, 299}) {
      for (Index i = 0; i < 250; ++i) {
        edges.emplace_back(hub, static_cast<Index>(rng.next_int(0, n - 1)));
      }
    }
    out.push_back({"dense_rows", spd_on_edges(rng, n, edges)});
  }
  for (int trial = 0; trial < 6; ++trial) {
    const Index n = static_cast<Index>(rng.next_int(1, 200));
    Edges edges;
    random_edges(n, static_cast<int>(rng.next_int(0, 4 * n)), edges);
    out.push_back({"random" + std::to_string(trial),
                   spd_on_edges(rng, n, edges)});
  }
  return out;
}

/// The interior-point normal-equation matrix G' S G + I of a configuration's
/// Algorithm-1 program, with S block diagonal over the cone (dense, SPD
/// second-order-cone blocks) — the pattern KktSystem factorises.
SparseMatrix normal_equations(const model::Configuration& config) {
  const core::BuiltProgram program = core::build_algorithm1(config);
  const SparseMatrix& g = program.problem.g();
  const solver::ConeSpec& cone = program.problem.cone();
  TripletList s(g.rows(), g.rows());
  for (Index i = 0; i < cone.nonneg(); ++i) s.add(i, i, 1.0);
  for (std::size_t b = 0; b < cone.soc_dims().size(); ++b) {
    const Index off = cone.soc_offset(b);
    const Index q = cone.soc_dims()[b];
    for (Index i = off; i < off + q; ++i) {
      for (Index j = off; j < off + q; ++j) s.add(i, j, i == j ? 2.0 : 0.05);
    }
  }
  const SparseMatrix sg = SparseMatrix::from_triplets(s).multiply(g);
  const SparseMatrix product = g.transpose().multiply(sg);
  TripletList n(product.rows(), product.cols());
  for (Index c = 0; c < product.cols(); ++c) {
    for (Index k = product.col_ptr()[c]; k < product.col_ptr()[c + 1]; ++k) {
      n.add(product.row_ind()[k], c, product.values()[k]);
    }
    n.add(c, c, 1.0);
  }
  return SparseMatrix::from_triplets(n);
}

gen::GenParams bench_params() {
  gen::GenParams params;
  params.num_processors = 8;
  params.seed = 5;
  return params;
}

std::vector<Pattern> normal_equation_patterns() {
  std::vector<Pattern> out;
  out.push_back(
      {"chain64", normal_equations(gen::make_chain(64, bench_params()))});
  out.push_back({"dag48", normal_equations(gen::make_random_dag(
                              48, 0.5, bench_params()))});
  out.push_back({"car", normal_equations(gen::car_entertainment_preset())});
  return out;
}

SparseLdlt factor_with(const SparseMatrix& a, const std::vector<Index>& perm) {
  SparseLdlt::Options options;
  options.fixed_permutation = &perm;
  SparseLdlt f(a, options);
  // The normal equations are SPD: every pivot must come out positive.
  EXPECT_EQ(f.negative_pivots(), 0);
  return f;
}

/// The whole differential check on one matrix for one ordering.
void check_against_dense(const Pattern& pattern, OrderingMethod method) {
  SCOPED_TRACE(pattern.name + " / " + ordering_name(method));
  const SparseMatrix& a = pattern.a;
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<Index> perm = compute_ordering(a, method);
  ASSERT_EQ(perm.size(), n);
  ASSERT_TRUE(is_permutation(perm));

  SparseLdlt f = factor_with(a, perm);
  Rng rng(static_cast<std::uint64_t>(n) + 1);
  Vector b(n);
  for (double& v : b) v = rng.next_real(-1.0, 1.0);
  Vector x = b;
  f.solve(x);
  const Vector oracle = solve_spd(a.to_dense(), b);
  Vector residual = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) residual[i] -= b[i];
  EXPECT_LE(norm2(residual), 1e-10 * std::max(1.0, norm2(b)));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], oracle[i], 1e-9 * (1.0 + std::abs(oracle[i])));
  }

  std::vector<Index> natural(n);
  for (std::size_t i = 0; i < n; ++i) natural[i] = static_cast<Index>(i);
  EXPECT_LE(f.factor_nnz(), factor_with(a, natural).factor_nnz());

  // refactor() on new values reproduces a fresh factorisation bit for bit.
  SparseMatrix shifted = a;
  for (Index c = 0; c < shifted.cols(); ++c) {
    for (Index k = shifted.col_ptr()[c]; k < shifted.col_ptr()[c + 1]; ++k) {
      if (shifted.row_ind()[k] == c) shifted.values()[k] *= 1.5;
    }
  }
  f.refactor(shifted);
  const SparseLdlt fresh = factor_with(shifted, perm);
  EXPECT_EQ(f.factor_values(), fresh.factor_values());
  EXPECT_EQ(f.diagonal(), fresh.diagonal());
}

class OrderingDifferential
    : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(OrderingDifferential, RandomPatternsMatchDenseCholesky) {
  for (const Pattern& p : random_patterns()) check_against_dense(p, GetParam());
}

TEST_P(OrderingDifferential, NormalEquationPatternsMatchDenseCholesky) {
  for (const Pattern& p : normal_equation_patterns()) {
    check_against_dense(p, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, OrderingDifferential,
    ::testing::Values(OrderingMethod::kNatural,
                      OrderingMethod::kApproximateMinimumDegree));

/// Factor fill of the first interior-point factorisation (cone-identity
/// scaling) — the number bench_ablation_ordering reports.
Index kkt_factor_nnz(const model::Configuration& config) {
  const core::BuiltProgram program = core::build_algorithm1(config);
  solver::NtScaling scaling(program.problem.cone());
  Vector e(static_cast<std::size_t>(program.problem.cone().dim()));
  program.problem.cone().identity(e);
  scaling.update(e, e);
  solver::KktSystem kkt(program.problem.g());
  kkt.factorise(scaling);
  return kkt.factor_nnz();
}

/// AMD fill of the normal-equation pattern G' S G of a configuration: the
/// matrix the clique-forming minimum degree was measured on.
Index normal_amd_nnz(const model::Configuration& config) {
  const SparseMatrix a = normal_equations(config);
  return factor_with(a, compute_ordering(
                            a, OrderingMethod::kApproximateMinimumDegree))
      .factor_nnz();
}

TEST(Amd, FillStaysWithinFivePercentOfCliqueMinimumDegree) {
  // Factor fill of the clique-forming minimum-degree ordering that AMD
  // replaced, measured on these exact instances before it was deleted.
  EXPECT_LE(normal_amd_nnz(gen::make_chain(128, bench_params())), 9330 * 1.05);
  EXPECT_LE(normal_amd_nnz(gen::make_random_dag(64, 0.5, bench_params())),
            3835 * 1.05);
  EXPECT_LE(normal_amd_nnz(gen::car_entertainment_preset()), 118 * 1.05);
}

/// Entries of W^{-1} G on its fixed pattern: one factor column per cone row.
Index scaled_g_nnz(const model::Configuration& config) {
  const core::BuiltProgram program = core::build_algorithm1(config);
  solver::NtScaling scaling(program.problem.cone());
  Vector e(static_cast<std::size_t>(program.problem.cone().dim()));
  program.problem.cone().identity(e);
  scaling.update(e, e);
  SparseMatrix winv_g;
  scaling.inverse_times_into(program.problem.g(), winv_g);
  return winv_g.nnz();
}

TEST(Amd, AugmentedKktFillIsPinned) {
  // The quasi-definite KKT factor eliminates the cone rows first: its fill
  // is one column per cone row (the row's entries of W^{-1} G) plus the
  // AMD-ordered normal-equation block. Pinned at the values measured when
  // it landed.
  const model::Configuration chain = gen::make_chain(128, bench_params());
  const model::Configuration dag =
      gen::make_random_dag(64, 0.5, bench_params());
  const model::Configuration car = gen::car_entertainment_preset();
  EXPECT_LE(kkt_factor_nnz(chain), 11525);
  EXPECT_LE(kkt_factor_nnz(dag), 5268);
  EXPECT_LE(kkt_factor_nnz(car), 230);
  for (const model::Configuration* config : {&chain, &dag, &car}) {
    EXPECT_EQ(kkt_factor_nnz(*config),
              normal_amd_nnz(*config) + scaled_g_nnz(*config));
  }
}

}  // namespace
}  // namespace bbs::linalg
