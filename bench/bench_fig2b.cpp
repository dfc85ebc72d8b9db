// Reproduces Figure 2(b) of the paper: the derivative of the budget
// reduction — how many Mcycles of budget one additional container buys on
// the producer-consumer graph T1.
//
// Expected shape: monotonically decreasing, from ~4.8 Mcycles for the second
// container down to ~0.3 for the tenth (the paper plots 0..5 on the y-axis),
// illustrating that the trade-off is non-linear: early containers are far
// more valuable than late ones.
#include <cstdio>

#include "bbs/api/engine.hpp"
#include "bbs/gen/generators.hpp"

int main() {
  std::printf("# Figure 2(b): derivative of budget reduction (task graph T1)\n");
  std::printf("# capacity | delta budget vs one fewer container [Mcycles]\n");

  bbs::api::Request request;
  request.payload =
      bbs::api::SweepRequest{bbs::gen::producer_consumer_t1(), 0, 1, 10};
  const bbs::api::Response response = bbs::api::Engine().run(request);
  if (response.status == bbs::api::ResponseStatus::kError) {
    std::fprintf(stderr, "sweep failed: %s\n", response.error.c_str());
    return 1;
  }
  const bbs::core::TradeoffSweep& sweep =
      std::get<bbs::api::SweepPayload>(response.payload).sweep;

  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    const auto& prev = sweep.points[i - 1];
    const auto& cur = sweep.points[i];
    if (!prev.feasible || !cur.feasible) {
      std::printf("%9d | n/a\n", static_cast<int>(cur.max_capacity));
      continue;
    }
    // Budgets of wa and wb are equal; plot the per-task reduction like the
    // paper does.
    const double delta =
        prev.budgets_continuous[0] - cur.budgets_continuous[0];
    std::printf("%9d | %10.4f\n", static_cast<int>(cur.max_capacity), delta);
  }
  std::printf("# expected: monotone decreasing ~4.8 -> ~0.3 (paper: ~5 -> ~0.3)\n");
  return 0;
}
