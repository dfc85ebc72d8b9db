// Reproduces Figure 3 of the paper: topology dependence of the optimisation
// of the sum of budgets for given maximum buffer sizes, on the three-stage
// chain T2 (wa -> wb -> wc, each on its own processor).
//
// Both buffer capacities are capped at the same value d = 1..10 and the sum
// of budgets is minimised. Because the budget of the middle task wb interacts
// with BOTH buffers, reducing it is twice as expensive in buffer capacity:
// the optimiser reduces beta(wa) = beta(wc) first, and beta(wb) stays on a
// higher curve — exactly the two curves of the paper's Figure 3, converging
// near the self-loop bound of 4 Mcycles at 10 containers.
#include <chrono>
#include <cstdio>

#include "bbs/api/engine.hpp"
#include "bbs/gen/generators.hpp"

int main() {
  using clock = std::chrono::steady_clock;
  std::printf(
      "# Figure 3: topology dependence (task graph T2 = wa -> wb -> wc)\n");
  std::printf("# rho = 40 Mcycles, chi = 1 Mcycle, mu = 10 Mcycles, both\n");
  std::printf("# buffer capacities capped at d; objective: sum of budgets\n");
  std::printf(
      "# capacity | beta(wa)=beta(wc) [Mcycles] | beta(wb) [Mcycles] | "
      "solve [ms]\n");

  bbs::api::Request request;
  request.payload =
      bbs::api::SweepRequest{bbs::gen::three_stage_chain_t2(), 0, 1, 10};
  const auto t0 = clock::now();
  const bbs::api::Response response = bbs::api::Engine().run(request);
  if (response.status == bbs::api::ResponseStatus::kError) {
    std::fprintf(stderr, "sweep failed: %s\n", response.error.c_str());
    return 1;
  }
  const bbs::core::TradeoffSweep& sweep =
      std::get<bbs::api::SweepPayload>(response.payload).sweep;
  const double total_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();

  for (const auto& p : sweep.points) {
    if (!p.feasible) {
      std::printf("%9d | infeasible\n", static_cast<int>(p.max_capacity));
      continue;
    }
    std::printf("%9d | %27.4f | %18.4f | %9.2f\n",
                static_cast<int>(p.max_capacity), p.budgets_continuous[0],
                p.budgets_continuous[1], total_ms / 10.0);
  }
  std::printf(
      "# expected: wb curve above wa/wc curve until both reach ~4 at d=10\n");
  return 0;
}
