// Ablation D2 (DESIGN.md): effect of the fill-reducing ordering on the
// sparse LDL^T factorisation inside the interior-point solver.
//
// For growing chains and random DAGs, the harness reports the factor fill
// (nnz of L) of the first KKT factorisation and the end-to-end solve
// time per ordering. Approximate minimum degree (AMD) is the library
// default; natural ordering is the baseline.
#include <chrono>
#include <cstdio>

#include "bbs/core/budget_buffer_solver.hpp"
#include "bbs/gen/generators.hpp"
#include "bbs/linalg/ordering.hpp"
#include "bbs/solver/kkt_system.hpp"
#include "bbs/solver/nt_scaling.hpp"

namespace {

using bbs::linalg::OrderingMethod;

double solve_ms(const bbs::model::Configuration& config,
                OrderingMethod ordering) {
  bbs::core::MappingOptions opts;
  opts.ipm.ordering = ordering;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = bbs::core::compute_budgets_and_buffers(config, opts);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return r.feasible() ? ms : -1.0;
}

bbs::linalg::Index factor_fill(const bbs::model::Configuration& config,
                               OrderingMethod ordering) {
  const bbs::core::BuiltProgram prog = bbs::core::build_algorithm1(config);
  bbs::solver::NtScaling scaling(prog.problem.cone());
  bbs::linalg::Vector e(static_cast<std::size_t>(prog.problem.cone().dim()));
  prog.problem.cone().identity(e);
  scaling.update(e, e);
  bbs::solver::KktSystem::Options kopts;
  kopts.ordering = ordering;
  bbs::solver::KktSystem kkt(prog.problem.g(), kopts);
  kkt.factorise(scaling);
  return kkt.factor_nnz();
}

}  // namespace

int main() {
  std::printf("# Ablation D2: fill-reducing ordering in the KKT solve\n");
  std::printf("# instance | ordering | factor nnz | solve [ms]\n");
  for (const int n : {16, 32, 64}) {
    for (const bool dag : {false, true}) {
      bbs::gen::GenParams params;
      params.num_processors = 8;
      params.seed = 5;
      const bbs::model::Configuration config =
          dag ? bbs::gen::make_random_dag(n, 0.5, params)
              : bbs::gen::make_chain(n, params);
      for (const OrderingMethod m :
           {OrderingMethod::kNatural,
            OrderingMethod::kApproximateMinimumDegree}) {
        std::printf("%-6s%-3d | %-10s | %10d | %8.2f\n",
                    dag ? "dag" : "chain", n, bbs::linalg::ordering_name(m),
                    static_cast<int>(factor_fill(config, m)),
                    solve_ms(config, m));
      }
    }
  }
  return 0;
}
