// Robustness matrix: the interior-point solver must reproduce the analytic
// T1 optimum under every combination of ordering, equilibration and step
// fraction — guarding against configurations that only work by accident.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "bbs/core/budget_buffer_solver.hpp"
#include "bbs/gen/generators.hpp"

namespace bbs::core {
namespace {

using OptionTuple = std::tuple<linalg::OrderingMethod, int, double>;

class SolverOptionMatrix : public ::testing::TestWithParam<OptionTuple> {};

TEST_P(SolverOptionMatrix, T1SweepMatchesClosedForm) {
  const auto [ordering, equilibrate_rounds, step_fraction] = GetParam();
  for (const int d : {1, 4, 7, 10}) {
    model::Configuration config = gen::producer_consumer_t1();
    config.mutable_task_graph(0).set_max_capacity(0, d);

    MappingOptions opts;
    opts.ipm.ordering = ordering;
    opts.ipm.equilibrate_rounds = equilibrate_rounds;
    opts.ipm.step_fraction = step_fraction;
    const MappingResult r = compute_budgets_and_buffers(config, opts);
    ASSERT_TRUE(r.feasible())
        << "ordering=" << linalg::ordering_name(ordering)
        << " eq=" << equilibrate_rounds << " sf=" << step_fraction
        << " d=" << d;

    const double p = 2.0 * 40.0 - d * 10.0;
    const double expect =
        std::max(4.0, (p + std::sqrt(p * p + 16.0 * 40.0)) / 4.0);
    EXPECT_NEAR(r.graphs[0].tasks[0].budget_continuous, expect,
                5e-3 * expect)
        << "d=" << d;
    EXPECT_TRUE(r.verified);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SolverOptionMatrix,
    ::testing::Combine(
        ::testing::Values(linalg::OrderingMethod::kNatural,
                          linalg::OrderingMethod::kApproximateMinimumDegree),
        ::testing::Values(0, 3),
        ::testing::Values(0.90, 0.99)));

TEST(SolverOptions, TightToleranceStillSolvesT2) {
  model::Configuration config = gen::three_stage_chain_t2();
  MappingOptions opts;
  opts.ipm.feas_tol = 1e-8;
  opts.ipm.gap_tol = 1e-8;
  const MappingResult r = compute_budgets_and_buffers(config, opts);
  // With best-iterate tracking the solver reports the closest point even if
  // the extreme tolerance is not reachable; either way the verified rounded
  // allocation must be produced when the status is optimal.
  if (r.feasible()) {
    EXPECT_TRUE(r.verified);
  }
}

TEST(SolverOptions, FewIterationsDegradeGracefully) {
  model::Configuration config = gen::producer_consumer_t1();
  MappingOptions opts;
  opts.ipm.max_iterations = 3;  // far too few
  const MappingResult r = compute_budgets_and_buffers(config, opts);
  // Must terminate with a clean status, never crash or report an unverified
  // allocation as verified.
  if (!r.feasible()) {
    SUCCEED();
  } else {
    EXPECT_TRUE(r.verified);
  }
}

TEST(SolverOptions, MoreRefinementNeverHurts) {
  for (const int refine : {0, 1, 3}) {
    model::Configuration config = gen::three_stage_chain_t2();
    model::TaskGraph& tg = config.mutable_task_graph(0);
    tg.set_max_capacity(0, 5);
    tg.set_max_capacity(1, 5);
    MappingOptions opts;
    opts.ipm.refine_steps = refine;
    const MappingResult r = compute_budgets_and_buffers(config, opts);
    ASSERT_TRUE(r.feasible()) << "refine=" << refine;
    EXPECT_TRUE(r.verified) << "refine=" << refine;
  }
}

}  // namespace
}  // namespace bbs::core
