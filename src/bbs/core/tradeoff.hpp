// Trade-off exploration between budgets and buffer sizes (Section V).
//
// The paper explores the non-linear budget/buffer trade-off by constraining
// the maximum buffer capacity and re-solving; this module packages that sweep
// (one SOCP per capacity bound) and reports the budget series that Figures
// 2(a), 2(b) and 3 plot.
//
// Both drivers run on a caller-provided SolverSession: the program is built
// once, each step rewrites only the changed bound/rhs entries in place, the
// KKT system's symbolic factorisation is shared by every solve, and each
// point warm-starts from the previous one (see core/solver_session.hpp).
// api::Engine prepares and pools those sessions per request kind.
#pragma once

#include <optional>
#include <vector>

#include "bbs/core/solver_session.hpp"

namespace bbs::core {

struct TradeoffPoint {
  Index max_capacity = 0;  ///< common capacity bound applied in this step
  bool feasible = false;
  /// Continuous budgets beta'(w), one per task of the swept graph.
  Vector budgets_continuous;
  /// Rounded budgets beta(w).
  std::vector<Index> budgets;
  /// Capacities gamma(b) chosen under the bound.
  std::vector<Index> capacities;
  /// Sum over tasks of beta' (the quantity whose reduction the paper plots).
  double total_budget_continuous = 0.0;
};

struct TradeoffSweep {
  std::vector<TradeoffPoint> points;

  /// Budget deltas between consecutive feasible points:
  /// delta[i] = total_budget(points[i-1]) - total_budget(points[i])
  /// (the series of Figure 2(b)).
  Vector budget_deltas() const;
};

/// Sweeps the common maximum capacity of all buffers of graph `graph_index`
/// from `cap_lo` to `cap_hi` containers and solves the joint problem at each
/// step through one warm-started session. Every buffer of the swept graph
/// must have carried a finite max_capacity when the session was built (the
/// cap rows must exist). The session's configuration is left at `cap_hi`;
/// pooled callers re-apply their parameters per request.
TradeoffSweep sweep_max_capacity(SolverSession& session, Index graph_index,
                                 Index cap_lo, Index cap_hi);

struct MinimalPeriodResult {
  /// Smallest feasible required period of the swept graph, within the
  /// relative tolerance of the search.
  double period = 0.0;
  /// The mapping computed at that period.
  MappingResult mapping;
};

/// Finds the smallest required period of graph `graph_index` for which the
/// joint budget/buffer problem is feasible (the platform's maximum
/// sustainable throughput), by bisection over the SOCP feasibility oracle.
/// Other graphs keep their current requirements. Probes are pure
/// feasibility queries, so the session should have been built with
/// `mapping.verify == false`; when `verify_result` is set the returned
/// mapping is verified against the session's configuration at the found
/// period (which the session is left at). Returns nullopt when even
/// `period_hi` is infeasible.
std::optional<MinimalPeriodResult> minimal_feasible_period(
    SolverSession& session, Index graph_index, double period_hi,
    double rel_tol, bool verify_result);

}  // namespace bbs::core
