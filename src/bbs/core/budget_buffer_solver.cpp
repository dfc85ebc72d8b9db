#include "bbs/core/budget_buffer_solver.hpp"

#include "bbs/common/assert.hpp"
#include "bbs/core/rounding.hpp"

namespace bbs::core {

MappingResult solve_built_program(const model::Configuration& config,
                                  const BuiltProgram& program,
                                  const MappingOptions& options) {
  const solver::IpmSolver ipm(options.ipm);
  return mapping_from_solution(config, program, ipm.solve(program.problem),
                               options);
}

MappingResult mapping_from_solution(const model::Configuration& config,
                                    const BuiltProgram& program,
                                    const solver::SolveResult& sol,
                                    const MappingOptions& options) {
  MappingResult result;
  result.status = sol.status;
  result.ipm_iterations = sol.iterations;
  result.warm_started = sol.warm_started;
  result.recovery_attempts = sol.recovery_attempts;
  result.recovered = sol.recovered;
  if (sol.status != solver::SolveStatus::kOptimal &&
      sol.status != solver::SolveStatus::kInaccurate) {
    return result;
  }
  result.objective_continuous = sol.primal_objective;

  const Index num_graphs = config.num_task_graphs();
  result.graphs.resize(static_cast<std::size_t>(num_graphs));
  double rounded_cost = 0.0;

  for (Index gi = 0; gi < num_graphs; ++gi) {
    const auto g = static_cast<std::size_t>(gi);
    const model::TaskGraph& tg = config.task_graph(gi);
    MappedGraph& mg = result.graphs[g];

    const Vector beta_cont = program.layout.budgets_of(sol.x, gi);
    const Vector delta_cont = program.layout.deltas_of(sol.x, gi);

    mg.tasks.resize(static_cast<std::size_t>(tg.num_tasks()));
    for (Index t = 0; t < tg.num_tasks(); ++t) {
      const auto ti = static_cast<std::size_t>(t);
      mg.tasks[ti].budget_continuous = beta_cont[ti];
      mg.tasks[ti].budget = round_budget(
          beta_cont[ti], config.granularity(), options.rounding_eps);
      rounded_cost += tg.task(t).budget_weight *
                      static_cast<double>(mg.tasks[ti].budget);
    }

    mg.buffers.resize(static_cast<std::size_t>(tg.num_buffers()));
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      const auto bi = static_cast<std::size_t>(b);
      const model::Buffer& buf = tg.buffer(b);
      mg.buffers[bi].tokens_continuous = delta_cont[bi];
      mg.buffers[bi].capacity = round_capacity(
          delta_cont[bi], buf.initial_fill, options.rounding_eps);
      // Rounded weighted cost counts the space tokens, mirroring the
      // objective (5): b(e)*zeta(e)*delta(e).
      rounded_cost += buf.size_weight *
                      static_cast<double>(buf.container_size) *
                      static_cast<double>(mg.buffers[bi].capacity -
                                          buf.initial_fill);
    }
  }

  result.objective_rounded = rounded_cost;
  if (options.verify) verify_mapping(config, result);
  return result;
}

MappingResult compute_budgets_and_buffers(const model::Configuration& config,
                                          const MappingOptions& options) {
  const BuiltProgram program = build_algorithm1(config);
  return solve_built_program(config, program, options);
}

void throw_if_interrupted(const MappingResult& result) {
  if (result.status == solver::SolveStatus::kTimedOut) {
    throw DeadlineExceeded("solve exceeded its deadline");
  }
  if (result.status == solver::SolveStatus::kCancelled) {
    throw Cancelled("solve was cancelled");
  }
}

void settle_lone_solve(const model::Configuration& config,
                       MappingResult& result) {
  throw_if_interrupted(result);
  switch (result.status) {
    case solver::SolveStatus::kOptimal:
    case solver::SolveStatus::kPrimalInfeasible:
    case solver::SolveStatus::kDualInfeasible:
      return;
    case solver::SolveStatus::kInaccurate:
      result.status = solver::SolveStatus::kOptimal;
      result.reduced_accuracy = true;
      verify_mapping(config, result);
      if (result.verified) return;
      break;
    default:
      break;
  }
  throw NumericalError("interior-point solve failed to converge");
}

void verify_mapping(const model::Configuration& config,
                    MappingResult& result) {
  if (!result.feasible()) return;
  bool all_ok = true;
  std::vector<Vector> budgets_by_graph;
  std::vector<std::vector<Index>> caps_by_graph;
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    MappedGraph& mg = result.graphs[static_cast<std::size_t>(gi)];
    Vector budgets;
    std::vector<Index> capacities;
    budgets.reserve(mg.tasks.size());
    capacities.reserve(mg.buffers.size());
    for (const TaskAllocation& t : mg.tasks) {
      budgets.push_back(static_cast<double>(t.budget));
    }
    for (const BufferAllocation& b : mg.buffers) {
      capacities.push_back(b.capacity);
    }
    mg.verification = verify_graph(config, gi, budgets, capacities);
    all_ok = all_ok && mg.verification.throughput_met;
    budgets_by_graph.push_back(std::move(budgets));
    caps_by_graph.push_back(std::move(capacities));
  }
  all_ok = all_ok && verify_platform(config, budgets_by_graph, caps_by_graph);
  result.verified = all_ok;
}

}  // namespace bbs::core
