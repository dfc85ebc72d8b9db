#include "bbs/core/solver_session.hpp"

#include "bbs/common/assert.hpp"

namespace bbs::core {

SolverSession::SolverSession(const model::Configuration& config,
                             SessionOptions options)
    : options_(std::move(options)),
      config_(config),
      program_(build_algorithm1(config_, options_.build)),
      ipm_(options_.mapping.ipm) {}

void SolverSession::set_buffer_cap(Index graph, Index buffer, Index cap) {
  BBS_REQUIRE(cap >= 1, "SolverSession::set_buffer_cap: cap must be >= 1");
  config_.mutable_task_graph(graph).set_max_capacity(buffer, cap);
  program_.refresh_buffer_cap(config_, graph, buffer);
}

void SolverSession::set_all_buffer_caps(Index graph, Index cap) {
  const Index num_buffers = config_.task_graph(graph).num_buffers();
  for (Index b = 0; b < num_buffers; ++b) {
    set_buffer_cap(graph, b, cap);
  }
}

void SolverSession::set_required_period(Index graph, double period) {
  config_.mutable_task_graph(graph).set_required_period(period);
  program_.refresh_required_period(config_, graph);
}

void SolverSession::set_fixed_budgets(Index graph, const Vector& budgets) {
  program_.refresh_fixed_budgets(config_, graph, budgets);
}

void SolverSession::set_fixed_deltas(Index graph, const Vector& deltas) {
  program_.refresh_fixed_deltas(config_, graph, deltas);
}

void SolverSession::set_solve_control(const SolveControl& control) {
  solver::SolverOptions opts = options_.mapping.ipm;
  opts.time_limit_ms = control.time_limit_ms;
  opts.deadline = control.deadline;
  opts.cancel = control.cancel;
  opts.fail_at_iteration = control.fail_at_iteration;
  opts.fail_only_first_attempt = control.fail_only_first_attempt;
  opts.trace_sink = control.trace_sink;
  opts.verbosity = control.verbosity;
  ipm_ = solver::IpmSolver(opts);
}

void SolverSession::clear_solve_control() {
  ipm_ = solver::IpmSolver(options_.mapping.ipm);
}

double SolverSession::seed_merit(const Snapshot& snap) const {
  // Distance of the stored point from a tau = 1 embedding solution of the
  // *current* data: the primal and dual residuals the solver would start
  // from. Two sparse mat-vecs — negligible next to one KKT factorisation.
  return program_.problem.primal_residual(snap.x, snap.s) +
         program_.problem.dual_residual(snap.z);
}

SeedSide SolverSession::select_seed() {
  if (!options_.mapping.ipm.warm_start) return SeedSide::kCold;
  if (!last_feasible_.valid && !last_infeasible_.valid) {
    return SeedSide::kCold;
  }
  // One-sided default: the workspace already holds the last optimum; only
  // the infeasible-side snapshot needs installing explicitly, and only when
  // it is strictly the better start for the data now in the program. An
  // infeasibility certificate lives at tau -> 0, so on nearby-feasible data
  // the feasible optimum wins this comparison and nothing changes.
  if (options_.two_sided_warm_seeds && last_infeasible_.valid) {
    const double infeasible_merit = seed_merit(last_infeasible_);
    if (!last_feasible_.valid || infeasible_merit < seed_merit(last_feasible_)) {
      workspace_.seed_warm(last_infeasible_.x, last_infeasible_.s,
                           last_infeasible_.z);
      warm_slot_is_feasible_ = false;
      return SeedSide::kInfeasible;
    }
  }
  if (!last_feasible_.valid) return SeedSide::kCold;
  // The workspace auto-stores every optimum, so the slot already holds the
  // feasible snapshot unless an infeasible-side seed displaced it.
  if (!warm_slot_is_feasible_) {
    workspace_.seed_warm(last_feasible_.x, last_feasible_.s, last_feasible_.z);
    warm_slot_is_feasible_ = true;
  }
  return SeedSide::kFeasible;
}

MappingResult SolverSession::solve() {
  const SeedSide side = select_seed();
  const solver::SolveResult sol = ipm_.solve(program_.problem, workspace_);

  // Stock the matching side for the next probe. Only optimal solves and
  // clean infeasibility certificates are starting points; stalls and
  // numerical failures refresh neither snapshot.
  if (sol.status == solver::SolveStatus::kOptimal) {
    last_feasible_.valid = true;
    last_feasible_.x = sol.x;
    last_feasible_.s = sol.s;
    last_feasible_.z = sol.z;
    warm_slot_is_feasible_ = true;  // the workspace auto-stored this optimum
    ++seed_stats_.last_feasible_updates;
  } else if (sol.status == solver::SolveStatus::kPrimalInfeasible ||
             sol.status == solver::SolveStatus::kDualInfeasible) {
    last_infeasible_.valid = true;
    last_infeasible_.x = sol.x;
    last_infeasible_.s = sol.s;
    last_infeasible_.z = sol.z;
    ++seed_stats_.last_infeasible_updates;
  }
  if (sol.recovery_attempts > 0 &&
      sol.status != solver::SolveStatus::kOptimal) {
    // The recovery ladder dropped the workspace's warm slot and nothing
    // refilled it; force select_seed() to reinstall a snapshot next time
    // instead of trusting the (now empty) slot.
    warm_slot_is_feasible_ = false;
  }

  seed_stats_.last_iterations = sol.iterations;
  if (!sol.warm_started) {
    ++seed_stats_.cold;
    seed_stats_.iterations_cold += sol.iterations;
  } else if (side == SeedSide::kInfeasible) {
    ++seed_stats_.seeded_infeasible;
    seed_stats_.iterations_seeded_infeasible += sol.iterations;
  } else {
    ++seed_stats_.seeded_feasible;
    seed_stats_.iterations_seeded_feasible += sol.iterations;
  }

  return mapping_from_solution(config_, program_, sol, options_.mapping);
}

}  // namespace bbs::core
