// Tests for SolverSession: repeated solves of one problem structure with
// in-place parameter updates, a persistent KKT workspace (symbolic
// factorisation shared by the whole session) and warm starts.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bbs/common/assert.hpp"
#include "bbs/core/refinement.hpp"
#include "bbs/core/solver_session.hpp"
#include "bbs/core/tradeoff.hpp"
#include "bbs/core/two_phase.hpp"
#include "testing/support.hpp"

namespace bbs::core {
namespace {

/// Tolerances tight enough that two independent solves of the same point
/// land on the same side of every rounding boundary (the default 1e-6 gap
/// leaves knife edges at exactly-integer optima; the rounding epsilon is
/// 1e-7), but loose enough that both the cold and the warm-started
/// trajectory still reach them before their numerical floor.
MappingOptions tight_options() {
  MappingOptions options;
  options.ipm.feas_tol = 1e-7;
  options.ipm.gap_tol = 1e-7;
  return options;
}

/// Joint throughput bisection on a fresh session: probes unverified, the
/// returned mapping verified.
std::optional<MinimalPeriodResult> joint_period_search(
    const model::Configuration& config, double period_hi) {
  SessionOptions options;
  options.mapping.verify = false;
  SolverSession session(config, options);
  return minimal_feasible_period(session, 0, period_hi, 1e-4, true);
}

/// Budget-first throughput bisection on a fresh session built with the
/// phase-1 budgets of the probe ceiling.
std::optional<MinimalPeriodResult> budget_first_period_search(
    const model::Configuration& config, double period_hi) {
  model::Configuration at_hi = config;
  at_hi.mutable_task_graph(0).set_required_period(period_hi);
  SessionOptions options;
  options.mapping.verify = false;
  options.build.fixed_budgets = budget_first_budgets(at_hi);
  SolverSession session(at_hi, options);
  return minimal_feasible_period_budget_first(session, 0, period_hi, 1e-4,
                                              1e-7, true);
}

void expect_same_mapping(const MappingResult& session_result,
                         const MappingResult& fresh, const char* context) {
  ASSERT_EQ(session_result.status, fresh.status) << context;
  if (!fresh.feasible()) return;
  BBS_EXPECT_NEAR_REL(session_result.objective_continuous,
                      fresh.objective_continuous, 1e-5);
  BBS_EXPECT_NEAR_REL(session_result.objective_rounded,
                      fresh.objective_rounded, 1e-5);
  EXPECT_EQ(session_result.verified, fresh.verified) << context;
  ASSERT_EQ(session_result.graphs.size(), fresh.graphs.size());
  for (std::size_t g = 0; g < fresh.graphs.size(); ++g) {
    ASSERT_EQ(session_result.graphs[g].tasks.size(),
              fresh.graphs[g].tasks.size());
    for (std::size_t t = 0; t < fresh.graphs[g].tasks.size(); ++t) {
      EXPECT_EQ(session_result.graphs[g].tasks[t].budget,
                fresh.graphs[g].tasks[t].budget)
          << context << " graph " << g << " task " << t;
    }
    ASSERT_EQ(session_result.graphs[g].buffers.size(),
              fresh.graphs[g].buffers.size());
    for (std::size_t b = 0; b < fresh.graphs[g].buffers.size(); ++b) {
      EXPECT_EQ(session_result.graphs[g].buffers[b].capacity,
                fresh.graphs[g].buffers[b].capacity)
          << context << " graph " << g << " buffer " << b;
    }
  }
}

TEST(SolverSession, SymbolicFactorisationSharedAcrossSweep) {
  const model::Configuration config = testing::multi_graph_sweep();
  SolverSession session(config);
  for (Index cap = 1; cap <= 8; ++cap) {
    session.set_all_buffer_caps(0, cap);
    const MappingResult result = session.solve();
    EXPECT_TRUE(result.feasible()) << "cap " << cap;
  }
  EXPECT_EQ(session.solves(), 8);
  ASSERT_NE(session.workspace().kkt(), nullptr);
  // The reuse invariant of the whole PR: one symbolic analysis for the
  // entire multi-point sweep, not one per point.
  EXPECT_EQ(session.workspace().kkt()->stats().symbolic_factorisations, 1);
  EXPECT_GT(session.workspace().kkt()->stats().factorise_calls, 8);
}

TEST(SolverSession, CapSweepMatchesFreshSolves) {
  const model::Configuration config = testing::multi_graph_sweep();
  SessionOptions session_options;
  session_options.mapping = tight_options();
  SolverSession session(config, session_options);
  for (Index cap = 1; cap <= 8; ++cap) {
    session.set_all_buffer_caps(0, cap);
    session.set_all_buffer_caps(1, cap);
    const MappingResult from_session = session.solve();

    model::Configuration fresh_config = config;
    for (Index gi = 0; gi < fresh_config.num_task_graphs(); ++gi) {
      model::TaskGraph& tg = fresh_config.mutable_task_graph(gi);
      for (Index b = 0; b < tg.num_buffers(); ++b) {
        tg.set_max_capacity(b, cap);
      }
    }
    const MappingResult fresh =
        compute_budgets_and_buffers(fresh_config, tight_options());
    expect_same_mapping(from_session, fresh,
                        ("cap " + std::to_string(cap)).c_str());
  }
}

TEST(SolverSession, PeriodUpdatesMatchFreshSolves) {
  const model::Configuration config = testing::multi_graph_sweep();
  SessionOptions session_options;
  session_options.mapping = tight_options();
  SolverSession session(config, session_options);
  // Includes an infeasible probe (mu = 2 needs beta > rho = 40 on p0 while
  // sharing it with the audio chain) to check the session recovers from a
  // cold restart and still matches the fresh solve afterwards.
  for (const double period : {14.0, 12.0, 2.0, 10.0, 9.5}) {
    session.set_required_period(0, period);
    const MappingResult from_session = session.solve();

    model::Configuration fresh_config = config;
    fresh_config.mutable_task_graph(0).set_required_period(period);
    const MappingResult fresh =
        compute_budgets_and_buffers(fresh_config, tight_options());
    expect_same_mapping(from_session, fresh,
                        ("period " + std::to_string(period)).c_str());
  }
  EXPECT_EQ(session.workspace().kkt()->stats().symbolic_factorisations, 1);
}

TEST(SolverSession, WarmStartsDoNotIncreaseTotalIterations) {
  const model::Configuration config = testing::multi_graph_sweep();
  SessionOptions warm_options;
  SessionOptions cold_options;
  cold_options.mapping.ipm.warm_start = false;
  SolverSession warm(config, warm_options);
  SolverSession cold(config, cold_options);
  for (Index cap = 1; cap <= 8; ++cap) {
    warm.set_all_buffer_caps(0, cap);
    cold.set_all_buffer_caps(0, cap);
    const MappingResult rw = warm.solve();
    const MappingResult rc = cold.solve();
    EXPECT_EQ(rw.status, rc.status) << "cap " << cap;
  }
  EXPECT_EQ(cold.workspace().warm_started_solves(), 0);
  // All but the first solve find a seed (every point here is feasible).
  EXPECT_EQ(warm.workspace().warm_started_solves(), 7);
  EXPECT_LE(warm.total_ipm_iterations(), cold.total_ipm_iterations());
}

TEST(SolverSession, FixedDeltaSessionMatchesBufferFirst) {
  const model::Configuration config = testing::multi_graph_sweep();
  SessionOptions options;
  options.mapping = tight_options();
  options.build.fixed_deltas = buffer_first_deltas(config, 1);
  SolverSession session(config, options);
  const std::vector<MappingResult> swept =
      sweep_buffer_first(session, config, 1, 6);
  ASSERT_EQ(swept.size(), 6u);
  for (Index cap = 1; cap <= 6; ++cap) {
    const MappingResult fresh =
        solve_buffer_first(config, cap, tight_options());
    expect_same_mapping(swept[static_cast<std::size_t>(cap - 1)], fresh,
                        ("buffer-first cap " + std::to_string(cap)).c_str());
  }
}

TEST(SolverSession, BudgetFirstPeriodSearchIsConsistent) {
  const model::Configuration config = testing::multi_graph_sweep();
  const auto two_phase = budget_first_period_search(config, 14.0);
  ASSERT_TRUE(two_phase.has_value());
  EXPECT_TRUE(two_phase->mapping.feasible());
  EXPECT_LE(two_phase->period, 14.0);

  // The flow it claims feasible must actually be feasible when re-run from
  // scratch at the found period.
  model::Configuration at_found = config;
  at_found.mutable_task_graph(0).set_required_period(two_phase->period);
  EXPECT_TRUE(solve_budget_first(at_found).feasible());

  // Committing phase-1 budgets can never beat the joint flow.
  const auto joint = joint_period_search(config, 14.0);
  ASSERT_TRUE(joint.has_value());
  EXPECT_GE(two_phase->period, joint->period - 1e-6);
}

TEST(SolverSession, PeriodSearchesReturnVerifiedMappings) {
  // The searches probe with verification disabled (a probe is only a
  // feasibility query), so the mapping they hand back must carry the full
  // verification pass run at the found period.
  const model::Configuration config = testing::multi_graph_sweep();
  const auto joint = joint_period_search(config, 14.0);
  ASSERT_TRUE(joint.has_value());
  EXPECT_TRUE(joint->mapping.verified);
  for (const MappedGraph& mg : joint->mapping.graphs) {
    EXPECT_TRUE(mg.verification.throughput_met);
    EXPECT_GT(mg.verification.mcr, 0.0);
  }
  const auto staged = budget_first_period_search(config, 14.0);
  ASSERT_TRUE(staged.has_value());
  EXPECT_TRUE(staged->mapping.verified);
}

TEST(SolverSession, CapUpdateWithoutCapRowThrows) {
  // two_task_chain leaves max_capacity = -1: the built program has no cap
  // row to rewrite, which must be reported, not silently ignored.
  const model::Configuration config = testing::two_task_chain();
  SolverSession session(config);
  EXPECT_THROW(session.set_buffer_cap(0, 0, 3), ContractViolation);
  EXPECT_THROW(session.set_buffer_cap(0, 0, 0), ContractViolation);
}

TEST(SolverSession, FixedValueUpdatesRequireMatchingBuild) {
  const model::Configuration config = testing::multi_graph_sweep();
  SolverSession session(config);  // joint build: nothing is fixed
  EXPECT_THROW(session.set_fixed_budgets(0, Vector{1.0, 1.0, 1.0}),
               ContractViolation);
  EXPECT_THROW(session.set_fixed_deltas(0, Vector{1.0, 1.0}),
               ContractViolation);
}

TEST(SolverSession, CallerConfigurationIsNeverTouched) {
  const model::Configuration config = testing::multi_graph_sweep();
  SolverSession session(config);
  session.set_all_buffer_caps(0, 3);
  session.set_required_period(0, 13.0);
  (void)session.solve();
  EXPECT_EQ(config.task_graph(0).buffer(0).max_capacity, 8);
  EXPECT_EQ(config.task_graph(0).required_period(), 12.0);
  EXPECT_EQ(session.config().task_graph(0).buffer(0).max_capacity, 3);
  EXPECT_EQ(session.config().task_graph(0).required_period(), 13.0);
}

TEST(SolverSession, RefinementUsesSessionConfiguration) {
  const model::Configuration config = testing::multi_graph_sweep();
  SolverSession session(config);
  session.set_all_buffer_caps(0, 4);
  MappingResult result = session.solve();
  ASSERT_TRUE(result.feasible());
  ASSERT_TRUE(result.verified);
  const RefinementStats stats = refine_rounded_mapping(session, result);
  EXPECT_LE(stats.cost_after, stats.cost_before + 1e-12);
  // Refinement re-verifies every accepted decrement against the session's
  // updated caps/periods.
  for (const MappedGraph& mg : result.graphs) {
    EXPECT_TRUE(mg.verification.throughput_met);
  }
}

TEST(IpmWorkspace, RejectsForeignProblemStructure) {
  const BuiltProgram small = build_algorithm1(testing::two_task_chain());
  const BuiltProgram large = build_algorithm1(testing::multi_graph_sweep());
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  EXPECT_TRUE(ipm.solve(small.problem, workspace).is_optimal());
  EXPECT_THROW(ipm.solve(large.problem, workspace), ContractViolation);
  workspace.reset();
  EXPECT_TRUE(ipm.solve(large.problem, workspace).is_optimal());
}

TEST(IpmWorkspace, RejectsSamePatternDifferentCone) {
  // Identical G pattern, different cone partition: the rebind check must
  // compare the cone too, not just the sparsity structure.
  const linalg::SparseMatrix g2 = linalg::SparseMatrix::identity(2);
  // max x1 + x2 s.t. x <= 1 elementwise, vs. the same rows as one SOC(2).
  const solver::ConicProblem lp(Vector{-1.0, -1.0}, g2, Vector{1.0, 1.0},
                                solver::ConeSpec(2, {}));
  const solver::ConicProblem soc(Vector{-1.0, -1.0}, g2, Vector{2.0, 1.0},
                                 solver::ConeSpec(0, {2}));
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  EXPECT_TRUE(ipm.solve(lp, workspace).is_optimal());
  EXPECT_THROW(ipm.solve(soc, workspace), ContractViolation);
}

TEST(IpmWorkspace, SurvivesDestructionOfTheBoundProblem) {
  // The workspace must hold no references into a solved problem: binding
  // state (cone, matrices) is copied, so re-solving an identical program
  // after the first one was destroyed is valid — the session pattern when
  // a program is rebuilt in place.
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  {
    const BuiltProgram first = build_algorithm1(testing::multi_graph_sweep());
    ASSERT_TRUE(ipm.solve(first.problem, workspace).is_optimal());
  }
  const BuiltProgram second = build_algorithm1(testing::multi_graph_sweep());
  const solver::SolveResult again = ipm.solve(second.problem, workspace);
  EXPECT_TRUE(again.is_optimal());
  EXPECT_TRUE(again.warm_started);
}

TEST(SolverSession, BisectionRecordsBothSeedSides) {
  // A period bisection alternates between feasible and infeasible probes;
  // the session must stock a snapshot per side and attribute every solve's
  // iterations to the seed that started it.
  const model::Configuration config = testing::multi_graph_sweep();
  SessionOptions options;
  options.mapping = tight_options();
  options.mapping.verify = false;
  SolverSession session(config, options);
  const auto found = minimal_feasible_period(session, 0, 14.0, 1e-4,
                                             /*verify_result=*/false);
  ASSERT_TRUE(found.has_value());

  EXPECT_TRUE(session.has_feasible_seed());
  EXPECT_TRUE(session.has_infeasible_seed());
  const SeedStats& stats = session.seed_stats();
  EXPECT_GT(stats.last_feasible_updates, 0);
  EXPECT_GT(stats.last_infeasible_updates, 0);
  // Every solve is accounted to exactly one seed side, iterations included.
  EXPECT_EQ(stats.cold + stats.seeded_feasible + stats.seeded_infeasible,
            session.solves());
  EXPECT_EQ(stats.iterations_cold + stats.iterations_seeded_feasible +
                stats.iterations_seeded_infeasible,
            session.total_ipm_iterations());
  EXPECT_GE(stats.cold, 1);          // the very first solve has no seed
  EXPECT_GT(stats.seeded_feasible, 0);
  EXPECT_GT(stats.last_iterations, 0);
}

TEST(SolverSession, TwoSidedSeedingMatchesOneSidedSearch) {
  // Seeding is a pure accelerator: the bisection must take the identical
  // feasibility decisions and land on the identical mapping either way.
  std::optional<MinimalPeriodResult> results[2];
  long iterations[2] = {0, 0};
  for (const bool two_sided : {false, true}) {
    const model::Configuration config = testing::multi_graph_sweep();
    SessionOptions options;
    options.mapping = tight_options();
    options.mapping.verify = false;
    options.two_sided_warm_seeds = two_sided;
    SolverSession session(config, options);
    results[two_sided] =
        minimal_feasible_period(session, 0, 14.0, 1e-4, false);
    iterations[two_sided] = session.total_ipm_iterations();
    ASSERT_TRUE(results[two_sided].has_value());
  }
  EXPECT_DOUBLE_EQ(results[0]->period, results[1]->period);
  expect_same_mapping(results[1]->mapping, results[0]->mapping,
                      "two-sided vs one-sided");
  // The infeasible-side seed only fires when its residual merit beats the
  // feasible optimum's, so the iteration total can only move by what those
  // solves save; it must never blow up.
  EXPECT_LE(iterations[1], iterations[0] + 8);
}

TEST(IpmWorkspace, RepeatSolveWarmStartsAndAgrees) {
  const BuiltProgram program = build_algorithm1(testing::multi_graph_sweep());
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  const solver::SolveResult first = ipm.solve(program.problem, workspace);
  const solver::SolveResult second = ipm.solve(program.problem, workspace);
  ASSERT_TRUE(first.is_optimal());
  ASSERT_TRUE(second.is_optimal());
  EXPECT_FALSE(first.warm_started);
  EXPECT_TRUE(second.warm_started);
  // Re-solving the identical problem from its own solution is the easiest
  // warm start there is.
  EXPECT_LE(second.iterations, first.iterations);
  BBS_EXPECT_NEAR_REL(second.primal_objective, first.primal_objective, 1e-6);
}

TEST(IpmWorkspace, ExplicitSeedWarmStartsNextSolve) {
  const BuiltProgram program = build_algorithm1(testing::multi_graph_sweep());
  const solver::IpmSolver ipm;
  solver::IpmWorkspace cold_ws;
  const solver::SolveResult cold = ipm.solve(program.problem, cold_ws);
  ASSERT_TRUE(cold.is_optimal());

  // Transplant the solution into a fresh workspace (what a session does
  // when re-installing a side snapshot): the next solve warm-starts.
  solver::IpmWorkspace seeded_ws;
  seeded_ws.seed_warm(cold.x, cold.s, cold.z);
  EXPECT_TRUE(seeded_ws.has_warm());
  const solver::SolveResult warm = ipm.solve(program.problem, seeded_ws);
  ASSERT_TRUE(warm.is_optimal());
  EXPECT_TRUE(warm.warm_started);
  EXPECT_LE(warm.iterations, cold.iterations);
  BBS_EXPECT_NEAR_REL(warm.primal_objective, cold.primal_objective, 1e-6);

  seeded_ws.clear_warm();
  EXPECT_FALSE(seeded_ws.has_warm());
  const solver::SolveResult recold = ipm.solve(program.problem, seeded_ws);
  EXPECT_FALSE(recold.warm_started);
}

TEST(IpmWorkspace, MismatchedSeedDimensionsFallBackToColdStart) {
  const BuiltProgram program = build_algorithm1(testing::multi_graph_sweep());
  const solver::IpmSolver ipm;
  solver::IpmWorkspace workspace;
  workspace.seed_warm(Vector(3, 1.0), Vector(2, 1.0), Vector(2, 1.0));
  const solver::SolveResult result = ipm.solve(program.problem, workspace);
  ASSERT_TRUE(result.is_optimal());
  EXPECT_FALSE(result.warm_started);
}

}  // namespace
}  // namespace bbs::core
