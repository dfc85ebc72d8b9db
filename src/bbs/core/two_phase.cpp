#include "bbs/core/two_phase.hpp"

#include <algorithm>

#include "bbs/common/assert.hpp"
#include "bbs/core/rounding.hpp"

namespace bbs::core {

std::vector<Vector> budget_first_budgets(const model::Configuration& config,
                                         double rounding_eps) {
  // Phase 1: per-task minimal budgets from the self-loop cycle of the task
  // model: rho(p)*chi(w)/beta <= mu(T)  =>  beta >= rho(p)*chi(w)/mu(T).
  std::vector<Vector> budgets;
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const model::TaskGraph& tg = config.task_graph(gi);
    Vector beta(static_cast<std::size_t>(tg.num_tasks()), 0.0);
    for (Index t = 0; t < tg.num_tasks(); ++t) {
      const model::Task& task = tg.task(t);
      const double rho =
          config.processor(task.processor).replenishment_interval;
      const double minimal = rho * task.wcet / tg.required_period();
      // Commit the rounded (deployable) budget before phase 2, exactly as a
      // staged mapping flow would.
      beta[static_cast<std::size_t>(t)] = static_cast<double>(
          round_budget(minimal, config.granularity(), rounding_eps));
    }
    budgets.push_back(std::move(beta));
  }
  return budgets;
}

std::vector<Vector> buffer_first_deltas(const model::Configuration& config,
                                        Index default_capacity) {
  BBS_REQUIRE(default_capacity >= 1,
              "buffer_first_deltas: capacity must be >= 1");
  // Phase 1: commit buffer capacities. The space queue of buffer b then
  // carries gamma - iota tokens.
  std::vector<Vector> deltas;
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const model::TaskGraph& tg = config.task_graph(gi);
    Vector d(static_cast<std::size_t>(tg.num_buffers()), 0.0);
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      const model::Buffer& buf = tg.buffer(b);
      Index gamma = default_capacity;
      if (buf.max_capacity != -1) gamma = std::min(gamma, buf.max_capacity);
      gamma = std::max(gamma, std::max<Index>(1, buf.initial_fill));
      d[static_cast<std::size_t>(b)] =
          static_cast<double>(gamma - buf.initial_fill);
    }
    deltas.push_back(std::move(d));
  }
  return deltas;
}

MappingResult solve_budget_first(const model::Configuration& config,
                                 const MappingOptions& options) {
  config.validate();
  BuildOptions build;
  build.fixed_budgets = budget_first_budgets(config, options.rounding_eps);
  const BuiltProgram program = build_algorithm1(config, build);
  return solve_built_program(config, program, options);
}

MappingResult solve_buffer_first(const model::Configuration& config,
                                 Index default_capacity,
                                 const MappingOptions& options) {
  config.validate();
  BuildOptions build;
  build.fixed_deltas = buffer_first_deltas(config, default_capacity);
  const BuiltProgram program = build_algorithm1(config, build);
  return solve_built_program(config, program, options);
}

std::vector<MappingResult> sweep_buffer_first(SolverSession& session,
                                              const model::Configuration& config,
                                              Index cap_lo, Index cap_hi) {
  BBS_REQUIRE(cap_lo >= 1 && cap_hi >= cap_lo,
              "sweep_buffer_first: need 1 <= cap_lo <= cap_hi");
  std::vector<MappingResult> results;
  results.reserve(static_cast<std::size_t>(cap_hi - cap_lo + 1));
  for (Index cap = cap_lo; cap <= cap_hi; ++cap) {
    const std::vector<Vector> deltas = buffer_first_deltas(config, cap);
    for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
      session.set_fixed_deltas(gi, deltas[static_cast<std::size_t>(gi)]);
    }
    results.push_back(session.solve());
    throw_if_interrupted(results.back());
  }
  return results;
}

std::optional<MinimalPeriodResult> minimal_feasible_period_budget_first(
    SolverSession& session, Index graph_index, double period_hi,
    double rel_tol, double rounding_eps, bool verify_result) {
  BBS_REQUIRE(period_hi > 0.0,
              "minimal_feasible_period_budget_first: period_hi must be "
              "positive");
  BBS_REQUIRE(rel_tol > 0.0 && rel_tol < 1.0,
              "minimal_feasible_period_budget_first: rel_tol must be in "
              "(0, 1)");

  const auto solve_at = [&](double period) {
    session.set_required_period(graph_index, period);
    session.set_fixed_budgets(
        graph_index,
        budget_first_budgets(session.config(), rounding_eps)
            [static_cast<std::size_t>(graph_index)]);
    MappingResult result = session.solve();
    // Abort the bisection on a deadline/cancel; an interrupted probe is not
    // an infeasible one.
    throw_if_interrupted(result);
    return result;
  };

  MappingResult at_hi = solve_at(period_hi);
  if (!at_hi.feasible()) {
    return std::nullopt;
  }

  double lo = 0.0;
  double hi = period_hi;
  MinimalPeriodResult best;
  best.period = period_hi;
  best.mapping = std::move(at_hi);
  while (hi - lo > rel_tol * hi) {
    const double mid = 0.5 * (lo + hi);
    MappingResult r = solve_at(mid);
    if (r.feasible()) {
      hi = mid;
      best.period = mid;
      best.mapping = std::move(r);
    } else {
      lo = mid;
    }
  }
  // Re-commit the returned period's budgets so the session configuration
  // and program match the mapping handed back.
  session.set_required_period(graph_index, best.period);
  session.set_fixed_budgets(
      graph_index, budget_first_budgets(session.config(), rounding_eps)
                       [static_cast<std::size_t>(graph_index)]);
  if (verify_result) {
    verify_mapping(session.config(), best.mapping);
  }
  return best;
}

}  // namespace bbs::core
