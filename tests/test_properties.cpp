// Cross-cutting monotonicity and invariance properties of the joint
// budget/buffer computation — the structural facts a user of the library
// relies on without reading the paper.
#include <gtest/gtest.h>

#include <cmath>

#include "bbs/api/engine.hpp"
#include "bbs/gen/generators.hpp"
#include "testing/support.hpp"

namespace bbs::core {
namespace {

/// Smallest feasible period of graph 0 below `period_hi`, as a min_period
/// request answers it.
api::MinPeriodPayload minimal_period(model::Configuration config,
                                     double period_hi, double rel_tol) {
  api::MinPeriodRequest search{std::move(config)};
  search.period_hi = period_hi;
  search.rel_tol = rel_tol;
  api::Request request;
  request.payload = std::move(search);
  const api::Response response = api::Engine().run(request);
  EXPECT_NE(response.status, api::ResponseStatus::kError) << response.error;
  if (response.status == api::ResponseStatus::kError) return {};
  return std::get<api::MinPeriodPayload>(response.payload);
}

TEST(Properties, CostIsNonIncreasingInThePeriod) {
  // Relaxing the throughput requirement can only make the mapping cheaper.
  double previous = std::numeric_limits<double>::infinity();
  for (const double mu : {6.0, 8.0, 10.0, 15.0, 25.0, 40.0}) {
    model::Configuration config = gen::producer_consumer_t1();
    config.mutable_task_graph(0).set_required_period(mu);
    const MappingResult r = compute_budgets_and_buffers(config);
    ASSERT_TRUE(r.feasible()) << "mu=" << mu;
    EXPECT_LE(r.objective_continuous, previous + 1e-6) << "mu=" << mu;
    previous = r.objective_continuous;
  }
}

TEST(Properties, CostIsNonIncreasingInBufferCaps) {
  double previous = std::numeric_limits<double>::infinity();
  for (Index cap = 1; cap <= 10; ++cap) {
    model::Configuration config = gen::three_stage_chain_t2();
    config.mutable_task_graph(0).set_max_capacity(0, cap);
    config.mutable_task_graph(0).set_max_capacity(1, cap);
    const MappingResult r = compute_budgets_and_buffers(config);
    ASSERT_TRUE(r.feasible());
    EXPECT_LE(r.objective_continuous, previous + 1e-5) << "cap=" << cap;
    previous = r.objective_continuous;
  }
}

TEST(Properties, SmallerWcetNeverRaisesCost) {
  model::Configuration heavy = gen::producer_consumer_t1();
  model::Configuration light = gen::producer_consumer_t1();
  light.mutable_task_graph(0).mutable_task(0).wcet = 0.5;  // was 1.0
  const MappingResult r_heavy = compute_budgets_and_buffers(heavy);
  const MappingResult r_light = compute_budgets_and_buffers(light);
  ASSERT_TRUE(r_heavy.feasible());
  ASSERT_TRUE(r_light.feasible());
  EXPECT_LE(r_light.objective_continuous,
            r_heavy.objective_continuous + 1e-6);
}

TEST(Properties, ExtraMemoryConstraintNeverLowersCost) {
  model::Configuration free_config = gen::producer_consumer_t1();
  const MappingResult r_free = compute_budgets_and_buffers(free_config);
  ASSERT_TRUE(r_free.feasible());

  testing::TwoTaskOptions opts;
  opts.memory_capacity = 7.0;  // capacity <= 6 after slack
  opts.size_weight = 1e-3;
  const model::Configuration tight = testing::two_task_chain(opts);
  const MappingResult r_tight = compute_budgets_and_buffers(tight);
  ASSERT_TRUE(r_tight.feasible());

  EXPECT_GE(r_tight.objective_continuous,
            r_free.objective_continuous - 1e-6);
}

TEST(Properties, MinimalPeriodMatchesClosedFormOnT1) {
  // For T1 with budgets capped by (9) at beta <= 39 and a 10-container
  // buffer cap, the smallest sustainable period solves the cycle equation
  // at beta = 39: mu* = max(40/39, (2(40-39) + 80/39) / 10).
  model::Configuration config = gen::producer_consumer_t1();
  config.mutable_task_graph(0).set_max_capacity(0, 10);
  const api::MinPeriodPayload r = minimal_period(config, 40.0, 1e-5);
  ASSERT_TRUE(r.found);
  const double expect =
      std::max(40.0 / 39.0, (2.0 * 1.0 + 2.0 * 40.0 / 39.0) / 10.0);
  EXPECT_NEAR(r.period, expect, 2e-3 * expect);
  EXPECT_TRUE(r.mapping.feasible());
}

TEST(Properties, MinimalPeriodInfeasibleCeilingReported) {
  // A single task whose WCET exceeds what even a full budget can sustain
  // within the probe ceiling.
  model::Configuration config(1);
  const auto p = config.add_processor("p", 40.0);
  config.add_memory("m", -1.0);
  model::TaskGraph tg("solo", 1.0);
  tg.add_task("t", p, 30.0);  // best period: 40*30/39 = 30.77 > ceiling 20
  config.add_task_graph(std::move(tg));
  EXPECT_FALSE(minimal_period(config, 20.0, 1e-4).found);
}

TEST(Properties, MinimalPeriodTighterWithMoreBuffers) {
  // Larger buffer caps allow a smaller minimal period... on T1 the minimum
  // is budget-limited at cap >= 1? No: at cap 1 the cycle needs
  // (2(40-b) + 80/b) <= mu; with b = 39 that is 4.05; at cap 10 it is 0.41
  // -> the self-loop bound 40/39 dominates. Check the ordering holds.
  model::Configuration config = gen::producer_consumer_t1();
  config.mutable_task_graph(0).set_max_capacity(0, 1);
  const api::MinPeriodPayload tight = minimal_period(config, 40.0, 1e-5);
  config.mutable_task_graph(0).set_max_capacity(0, 10);
  const api::MinPeriodPayload loose = minimal_period(config, 40.0, 1e-5);
  ASSERT_TRUE(tight.found);
  ASSERT_TRUE(loose.found);
  EXPECT_GT(tight.period, loose.period);
  EXPECT_NEAR(tight.period, 2.0 * 1.0 + 2.0 * 40.0 / 39.0, 2e-2);
}

TEST(Properties, TaskOrderInvariance) {
  // Renumbering the tasks of T2 must not change the optimal cost.
  model::Configuration original = gen::three_stage_chain_t2();

  model::Configuration permuted(1);
  const auto p1 = permuted.add_processor("p1", 40.0);
  const auto p2 = permuted.add_processor("p2", 40.0);
  const auto p3 = permuted.add_processor("p3", 40.0);
  const auto mem = permuted.add_memory("m1", -1.0);
  model::TaskGraph tg("T2p", 10.0);
  const auto wc = tg.add_task("wc", p3, 1.0);  // reversed declaration order
  const auto wb = tg.add_task("wb", p2, 1.0);
  const auto wa = tg.add_task("wa", p1, 1.0);
  tg.add_buffer("bbc", wb, wc, mem, 1, 0, 1e-3);
  tg.add_buffer("bab", wa, wb, mem, 1, 0, 1e-3);
  permuted.add_task_graph(std::move(tg));

  const MappingResult a = compute_budgets_and_buffers(original);
  const MappingResult b = compute_budgets_and_buffers(permuted);
  ASSERT_TRUE(a.feasible());
  ASSERT_TRUE(b.feasible());
  EXPECT_NEAR(a.objective_continuous, b.objective_continuous,
              1e-5 * (1.0 + a.objective_continuous));
}

TEST(Properties, GranularityCoarseningNeverCheapensRounded) {
  double previous = 0.0;
  for (const Index g : {1, 2, 4, 8}) {
    testing::TwoTaskOptions opts;
    opts.granularity = g;
    opts.size_weight = 1e-3;
    opts.max_capacity = 5;
    const model::Configuration config = testing::two_task_chain(opts);
    const MappingResult r = compute_budgets_and_buffers(config);
    ASSERT_TRUE(r.feasible()) << "g=" << g;
    EXPECT_GE(r.objective_rounded, previous - 1e-9) << "g=" << g;
    previous = r.objective_rounded;
  }
}

}  // namespace
}  // namespace bbs::core
