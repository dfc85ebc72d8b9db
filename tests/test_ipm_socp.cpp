// Interior-point solver on second-order cone programs with analytically
// known optima, including the hyperbolic constraints used by Algorithm 1.
#include <gtest/gtest.h>

#include <cmath>

#include "bbs/common/rng.hpp"
#include "bbs/core/program_builder.hpp"
#include "bbs/gen/generators.hpp"
#include "bbs/solver/ipm_solver.hpp"

namespace bbs::solver {
namespace {

/// Adds the rotated-cone encoding of x*y >= 1 (x, y > 0):
/// (x + y, x - y, 2) in SOC(3).
void add_hyperbola(ConicProblemBuilder& b, linalg::Index x, linalg::Index y) {
  b.begin_soc(3);
  b.soc_row({{x, -1.0}, {y, -1.0}}, 0.0);
  b.soc_row({{x, -1.0}, {y, 1.0}}, 0.0);
  b.soc_row({}, 2.0);
}

TEST(IpmSocp, HyperbolaWithUpperBound) {
  // min y s.t. x*y >= 1, x <= 2 -> y = 1/2.
  ConicProblemBuilder b(2);
  b.set_objective(1, 1.0);
  b.add_inequality({{0, 1.0}}, 2.0);
  add_hyperbola(b, 0, 1);
  const SolveResult r = IpmSolver().solve(b.build());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-5);
  EXPECT_NEAR(r.x[1], 0.5, 1e-6);
}

TEST(IpmSocp, EuclideanProjection) {
  // min t s.t. ||(x - 3, y - 4)|| <= t, x = y = 0 not required; with
  // x, y <= 0 the nearest point to (3,4) in the third quadrant is (0,0),
  // so t* = 5.
  ConicProblemBuilder b(3);  // x, y, t
  b.set_objective(2, 1.0);
  b.add_inequality({{0, 1.0}}, 0.0);
  b.add_inequality({{1, 1.0}}, 0.0);
  b.begin_soc(3);
  b.soc_row({{2, -1.0}}, 0.0);           // s0 = t
  b.soc_row({{0, -1.0}}, -3.0);          // s1 = x - 3
  b.soc_row({{1, -1.0}}, -4.0);          // s2 = y - 4
  const SolveResult r = IpmSolver().solve(b.build());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.primal_objective, 5.0, 1e-5);
  EXPECT_NEAR(r.x[0], 0.0, 1e-5);
  EXPECT_NEAR(r.x[1], 0.0, 1e-5);
}

TEST(IpmSocp, GeometricMeanMaximisation) {
  // max z s.t. z^2 <= x*y (via (x+y, x-y, 2z) in SOC), x + y <= 4,
  // x, y >= 0 -> x = y = 2, z = 2.
  ConicProblemBuilder b(3);  // x, y, z
  b.set_objective(2, -1.0);
  b.add_inequality({{0, 1.0}, {1, 1.0}}, 4.0);
  b.add_inequality({{0, -1.0}}, 0.0);
  b.add_inequality({{1, -1.0}}, 0.0);
  b.begin_soc(3);
  b.soc_row({{0, -1.0}, {1, -1.0}}, 0.0);
  b.soc_row({{0, -1.0}, {1, 1.0}}, 0.0);
  b.soc_row({{2, -2.0}}, 0.0);
  const SolveResult r = IpmSolver().solve(b.build());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.x[2], 2.0, 1e-5);
}

TEST(IpmSocp, InfeasibleHyperbolaBudget) {
  // x*y >= 1, x <= 2, y <= 0.25: needs x >= 4. Infeasible.
  ConicProblemBuilder b(2);
  b.set_objective(0, 1.0);
  b.add_inequality({{0, 1.0}}, 2.0);
  b.add_inequality({{1, 1.0}}, 0.25);
  add_hyperbola(b, 0, 1);
  const SolveResult r = IpmSolver().solve(b.build());
  EXPECT_EQ(r.status, SolveStatus::kPrimalInfeasible);
}

TEST(IpmSocp, ChainedHyperbolas) {
  // min x + w s.t. x*y >= 1, y*w >= 1, y <= 3
  // At optimum y = 3 (largest y relaxes both): x = w = 1/3, obj = 2/3.
  ConicProblemBuilder b(3);  // x, y, w
  b.set_objective(0, 1.0);
  b.set_objective(2, 1.0);
  b.add_inequality({{1, 1.0}}, 3.0);
  add_hyperbola(b, 0, 1);
  add_hyperbola(b, 1, 2);
  const SolveResult r = IpmSolver().solve(b.build());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.primal_objective, 2.0 / 3.0, 1e-5);
  EXPECT_NEAR(r.x[1], 3.0, 1e-4);
}

TEST(IpmSocp, MixedLpSocDuality) {
  // Strong duality on a mixed problem: primal and dual objectives agree.
  ConicProblemBuilder b(2);
  b.set_objective(0, 3.0);
  b.set_objective(1, 1.0);
  b.add_inequality({{0, -1.0}}, 0.0);
  add_hyperbola(b, 0, 1);
  const ConicProblem p = b.build();
  const SolveResult r = IpmSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  // min 3x + y s.t. xy >= 1 -> x = 1/sqrt(3), y = sqrt(3), obj = 2 sqrt(3).
  EXPECT_NEAR(r.primal_objective, 2.0 * std::sqrt(3.0), 1e-5);
  EXPECT_NEAR(r.primal_objective, r.dual_objective, 1e-4);
  EXPECT_LT(p.primal_residual(r.x, r.s), 1e-6);
  EXPECT_LT(p.dual_residual(r.z), 1e-6);
}

/// Randomised hyperbola instances with known closed-form optima:
/// min a*x + b*y s.t. x*y >= 1 has optimum 2*sqrt(a*b) at x = sqrt(b/a).
class RandomHyperbola : public ::testing::TestWithParam<int> {};

TEST_P(RandomHyperbola, MatchesClosedForm) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1237 + 5);
  for (int trial = 0; trial < 10; ++trial) {
    const double a = rng.next_real(0.1, 10.0);
    const double bb = rng.next_real(0.1, 10.0);
    ConicProblemBuilder b(2);
    b.set_objective(0, a);
    b.set_objective(1, bb);
    add_hyperbola(b, 0, 1);
    const SolveResult r = IpmSolver().solve(b.build());
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_NEAR(r.primal_objective, 2.0 * std::sqrt(a * bb),
                1e-5 * (1.0 + 2.0 * std::sqrt(a * bb)));
    // The argmin is flatter than the optimum: allow a looser tolerance.
    EXPECT_NEAR(r.x[0], std::sqrt(bb / a), 2e-3 * (1.0 + std::sqrt(bb / a)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHyperbola, ::testing::Range(0, 6));

TEST(IpmSocp, LargerSocBlock) {
  // min t s.t. ||x - x0||_2 <= t over 6 coordinates, x free -> t = 0 with
  // x = x0 (tests SOC blocks beyond dimension 3).
  const std::size_t n = 6;
  ConicProblemBuilder b(static_cast<linalg::Index>(n) + 1);
  b.set_objective(static_cast<linalg::Index>(n), 1.0);
  b.begin_soc(static_cast<linalg::Index>(n) + 1);
  b.soc_row({{static_cast<linalg::Index>(n), -1.0}}, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    b.soc_row({{static_cast<linalg::Index>(i), -1.0}},
              -(1.0 + static_cast<double>(i)));
  }
  const SolveResult r = IpmSolver().solve(b.build());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.primal_objective, 0.0, 1e-5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r.x[i], 1.0 + static_cast<double>(i), 1e-4);
  }
}

TEST(IpmReducedAccuracy, CutShortSolveReturnsItsBestReducedIterate) {
  // Stop one convergence test short: the last iterate tested is inside the
  // reduced-accuracy pair but not the tolerances, so the solve reports it
  // as kInaccurate, scaled like an optimum, instead of kMaxIterations.
  const ConicProblem problem =
      core::build_algorithm1(gen::producer_consumer_t1()).problem;
  const SolveResult converged = IpmSolver().solve(problem);
  ASSERT_EQ(converged.status, SolveStatus::kOptimal);

  SolverOptions options;
  options.max_iterations = converged.iterations;
  const SolveResult cut = IpmSolver(options).solve(problem);
  ASSERT_EQ(cut.status, SolveStatus::kInaccurate);
  EXPECT_LE(cut.primal_residual, 1e-3);
  EXPECT_NEAR(cut.primal_objective, converged.primal_objective,
              1e-3 * converged.primal_objective);

  // Far from the optimum there is no such iterate: the stall stands.
  options.max_iterations = 2;
  EXPECT_EQ(IpmSolver(options).solve(problem).status,
            SolveStatus::kMaxIterations);
  // An injected fault is never rescued by a reduced-accuracy iterate.
  options.max_iterations = 100;
  options.fail_at_iteration = converged.iterations;
  EXPECT_EQ(IpmSolver(options).solve(problem).status,
            SolveStatus::kNumericalFailure);
}

}  // namespace
}  // namespace bbs::solver
