// Tests for the budget/buffer trade-off sweep (the machinery behind Figures
// 2(a), 2(b) and 3 of the paper), served as api::Engine sweep requests.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "bbs/api/engine.hpp"
#include "bbs/common/assert.hpp"
#include "bbs/core/tradeoff.hpp"
#include "bbs/gen/generators.hpp"
#include "testing/support.hpp"

namespace bbs::core {
namespace {

api::Request sweep_request(model::Configuration config, Index cap_lo,
                           Index cap_hi) {
  api::Request request;
  request.payload = api::SweepRequest{std::move(config), 0, cap_lo, cap_hi};
  return request;
}

/// Sweeps the common capacity bound of graph 0 over [cap_lo, cap_hi]
/// through a fresh engine.
TradeoffSweep engine_sweep(model::Configuration config, Index cap_lo,
                           Index cap_hi) {
  const api::Response response =
      api::Engine().run(sweep_request(std::move(config), cap_lo, cap_hi));
  EXPECT_NE(response.status, api::ResponseStatus::kError) << response.error;
  if (response.status == api::ResponseStatus::kError) return {};
  return std::get<api::SweepPayload>(response.payload).sweep;
}

TEST(Tradeoff, T1SweepIsMonotoneDecreasingAndConvex) {
  const TradeoffSweep sweep = engine_sweep(gen::producer_consumer_t1(), 1, 10);
  ASSERT_EQ(sweep.points.size(), 10u);
  for (const TradeoffPoint& p : sweep.points) {
    ASSERT_TRUE(p.feasible) << "capacity " << p.max_capacity;
  }
  // Monotone decreasing budgets (Figure 2(a)).
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    EXPECT_LE(sweep.points[i].total_budget_continuous,
              sweep.points[i - 1].total_budget_continuous + 1e-6);
  }
  // The marginal saving per extra container decreases (Figure 2(b)):
  // the non-linearity of the trade-off.
  const linalg::Vector deltas = sweep.budget_deltas();
  ASSERT_EQ(deltas.size(), 9u);
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_LE(deltas[i], deltas[i - 1] + 1e-4);
  }
  EXPECT_GT(deltas.front(), 4.0);  // ~4.83 Mcycles for the 2nd container
  EXPECT_LT(deltas.back(), 1.0);   // ~0.30 for the 10th
}

TEST(Tradeoff, SweepSharesOneSymbolicFactorisation) {
  // The sweep must not rebuild solver state between points: one session
  // solves every point, in capacity order.
  const api::Response response =
      api::Engine().run(sweep_request(gen::producer_consumer_t1(), 1, 6));
  ASSERT_EQ(response.status, api::ResponseStatus::kOk) << response.error;
  const TradeoffSweep& sweep =
      std::get<api::SweepPayload>(response.payload).sweep;
  ASSERT_EQ(sweep.points.size(), 6u);
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    EXPECT_EQ(sweep.points[i].max_capacity, static_cast<Index>(i) + 1);
  }
  EXPECT_EQ(response.diagnostics.solves, 6);
  EXPECT_EQ(response.diagnostics.symbolic_factorisations, 1);
}

TEST(Tradeoff, InfeasiblePointsMarked) {
  // mu = 2.2 on T1 makes capacity 1 infeasible (needs beta > 39) while
  // larger capacities work.
  testing::TwoTaskOptions opts;
  opts.required_period = 2.2;
  opts.size_weight = 1e-3;
  const TradeoffSweep sweep =
      engine_sweep(testing::two_task_chain(opts), 1, 40);
  ASSERT_EQ(sweep.points.size(), 40u);
  EXPECT_FALSE(sweep.points.front().feasible);
  EXPECT_TRUE(sweep.points.back().feasible);
  // Feasibility is monotone in the capacity bound.
  bool seen_feasible = false;
  for (const TradeoffPoint& p : sweep.points) {
    if (seen_feasible) {
      EXPECT_TRUE(p.feasible);
    }
    seen_feasible = seen_feasible || p.feasible;
  }
  EXPECT_TRUE(seen_feasible);
  // Deltas skip infeasible prefixes.
  EXPECT_LT(sweep.budget_deltas().size(), 39u);
}

TEST(Tradeoff, T2MiddleTaskReducedLast) {
  // Figure 3: sweeping both caps of the three-stage chain, the outer tasks'
  // budgets drop below the middle task's budget as soon as capacity allows.
  const TradeoffSweep sweep = engine_sweep(gen::three_stage_chain_t2(), 1, 10);
  for (const TradeoffPoint& p : sweep.points) {
    ASSERT_TRUE(p.feasible);
    const double beta_a = p.budgets_continuous[0];
    const double beta_b = p.budgets_continuous[1];
    const double beta_c = p.budgets_continuous[2];
    EXPECT_NEAR(beta_a, beta_c, 1e-3 * (beta_a + 1.0));
    EXPECT_GE(beta_b, beta_a - 1e-6);
  }
  // At small capacity the gap is pronounced; it closes by capacity 10 when
  // every budget reaches the self-loop bound 4.
  EXPECT_GT(sweep.points[2].budgets_continuous[1] -
                sweep.points[2].budgets_continuous[0],
            1.0);
  EXPECT_NEAR(sweep.points[9].budgets_continuous[1], 4.0, 0.2);
}

TEST(Tradeoff, RejectsBadRange) {
  api::Engine engine;
  for (const auto& [lo, hi] : {std::pair<Index, Index>{0, 5}, {4, 2}}) {
    const api::Response response =
        engine.run(sweep_request(gen::producer_consumer_t1(), lo, hi));
    EXPECT_EQ(response.status, api::ResponseStatus::kError);
    EXPECT_NE(response.error.find("cap_lo <= cap_hi"), std::string::npos);
  }
  EXPECT_EQ(engine.pooled_sessions(), 0u);  // rejected before any build

  model::Configuration config = gen::producer_consumer_t1();
  config.mutable_task_graph(0).set_max_capacity(0, 3);
  SolverSession session(config);
  EXPECT_THROW(sweep_max_capacity(session, 0, 0, 5), ContractViolation);
  EXPECT_THROW(sweep_max_capacity(session, 0, 4, 2), ContractViolation);
}

}  // namespace
}  // namespace bbs::core
