#include "bbs/core/tradeoff.hpp"

#include <algorithm>
#include <cmath>

#include "bbs/common/assert.hpp"

namespace bbs::core {

Vector TradeoffSweep::budget_deltas() const {
  Vector deltas;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i - 1].feasible && points[i].feasible) {
      deltas.push_back(points[i - 1].total_budget_continuous -
                       points[i].total_budget_continuous);
    }
  }
  return deltas;
}

TradeoffSweep sweep_max_capacity(SolverSession& session, Index graph_index,
                                 Index cap_lo, Index cap_hi) {
  BBS_REQUIRE(cap_lo >= 1 && cap_hi >= cap_lo,
              "sweep_max_capacity: need 1 <= cap_lo <= cap_hi");
  TradeoffSweep sweep;
  for (Index cap = cap_lo; cap <= cap_hi; ++cap) {
    session.set_all_buffer_caps(graph_index, cap);
    const MappingResult result = session.solve();
    throw_if_interrupted(result);

    TradeoffPoint point;
    point.max_capacity = cap;
    point.feasible = result.feasible();
    if (point.feasible) {
      const MappedGraph& mg =
          result.graphs[static_cast<std::size_t>(graph_index)];
      for (const TaskAllocation& t : mg.tasks) {
        point.budgets_continuous.push_back(t.budget_continuous);
        point.budgets.push_back(t.budget);
        point.total_budget_continuous += t.budget_continuous;
      }
      for (const BufferAllocation& b : mg.buffers) {
        point.capacities.push_back(b.capacity);
      }
    }
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

std::optional<MinimalPeriodResult> minimal_feasible_period(
    SolverSession& session, Index graph_index, double period_hi,
    double rel_tol, bool verify_result) {
  BBS_REQUIRE(period_hi > 0.0,
              "minimal_feasible_period: period_hi must be positive");
  BBS_REQUIRE(rel_tol > 0.0 && rel_tol < 1.0,
              "minimal_feasible_period: rel_tol must be in (0, 1)");

  const auto solve_at = [&](double period) {
    session.set_required_period(graph_index, period);
    MappingResult result = session.solve();
    // A deadline hit mid-bisection must abort the search, not masquerade
    // as an infeasible probe and skew the bracket.
    throw_if_interrupted(result);
    return result;
  };

  MappingResult at_hi = solve_at(period_hi);
  if (!at_hi.feasible()) {
    return std::nullopt;
  }

  // Bisection: the feasible set of periods is upward closed (a PAS for a
  // smaller period is a PAS for any larger one, and constraints (9)/(10)
  // only relax as mu grows).
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
  // Leave the session at the period of the returned mapping, so its
  // configuration matches the result (pooled callers rely on this).
  session.set_required_period(graph_index, best.period);
  if (verify_result) {
    verify_mapping(session.config(), best.mapping);
    if (!best.mapping.verified) {
      // At ill-conditioned scales (replenishment intervals orders of
      // magnitude above the period) the solver's feasibility tolerance can
      // admit a probe period slightly below what the rounded allocation
      // actually sustains. The allocation's own MCR is the smallest period
      // it verifies at — re-anchor there when it still lies within the
      // bracket, instead of returning a mapping that fails its own
      // verification.
      const double mcr =
          best.mapping.graphs[static_cast<std::size_t>(graph_index)]
              .verification.mcr;
      const double candidate = std::min(period_hi, mcr * (1.0 + 1e-9));
      if (std::isfinite(mcr) && candidate > best.period) {
        best.period = candidate;
        session.set_required_period(graph_index, best.period);
        verify_mapping(session.config(), best.mapping);
      }
    }
  }
  return best;
}

}  // namespace bbs::core
