// Two-phase baselines: budget and buffer computation in separate mapping
// phases, as in the flows the paper improves upon (Section I cites Moreira
// et al. EMSOFT'07 and Stuijk et al. DAC'07).
//
// * budget_first: phase 1 assigns each task the minimal budget that sustains
//   the throughput requirement in isolation (the self-loop bound
//   beta >= rho(p)*chi(w)/mu(T), rounded up to the granularity); phase 2
//   sizes the buffers for those fixed budgets — a pure LP, as in the earlier
//   buffer-sizing literature.
//
// * buffer_first: phase 1 fixes every buffer at its maximum allowed capacity
//   (or a caller-provided cap); phase 2 computes minimal budgets for those
//   fixed buffer sizes (still a cone program: the hyperbolic constraint (8)
//   remains).
//
// Both baselines can produce false negatives — configurations where a joint
// solution exists but the committed phase-1 choice makes phase 2 infeasible —
// and both can be arbitrarily more expensive than the joint optimum. The
// ablation bench bench_ablation_twophase quantifies this.
#pragma once

#include <vector>

#include "bbs/core/tradeoff.hpp"

namespace bbs::core {

/// Budget-first two-phase flow. `options` configures the phase-2 solve.
MappingResult solve_budget_first(const model::Configuration& config,
                                 const MappingOptions& options = {});

/// Buffer-first two-phase flow: buffers are fixed at `default_capacity`
/// containers (or at their max_capacity when set, whichever is smaller).
MappingResult solve_buffer_first(const model::Configuration& config,
                                 Index default_capacity,
                                 const MappingOptions& options = {});

/// The phase-1 commitments, exposed so session-based drivers can update a
/// prepared program in place instead of rebuilding it per step.

/// Minimal rounded budgets per graph for the current periods (the
/// budget-first phase 1): beta = round_up(rho(p)*chi(w)/mu(T)).
std::vector<Vector> budget_first_budgets(const model::Configuration& config,
                                         double rounding_eps = 1e-7);

/// Space-token counts per graph for a common default capacity (the
/// buffer-first phase 1): delta = gamma - iota with gamma clamped to
/// [max(1, iota), max_capacity].
std::vector<Vector> buffer_first_deltas(const model::Configuration& config,
                                        Index default_capacity);

/// Buffer-first flow across a whole range of default capacities — the
/// two-phase side of the capacity trade-off sweep — through one warm-started
/// session built with fixed deltas: the pure-LP phase-2 program is built
/// once and only the fixed token counts change between points. `config` is
/// the configuration the per-capacity token counts are derived from; it must
/// structurally match the session's. Element i of the result is the flow at
/// capacity cap_lo + i.
std::vector<MappingResult> sweep_buffer_first(SolverSession& session,
                                              const model::Configuration& config,
                                              Index cap_lo, Index cap_hi);

/// Smallest required period of graph `graph_index` for which the
/// *budget-first two-phase* flow succeeds, by the same bisection as
/// minimal_feasible_period, on a session built with fixed budgets. Each
/// probe re-commits the swept graph's phase-1 budgets for the candidate
/// period in place. Because the committed budgets move in granularity
/// steps, the two-phase feasibility set is only approximately upward
/// closed; the search treats it as monotone, exactly as a staged mapping
/// flow would. The session should probe unverified
/// (`mapping.verify == false`); with `verify_result` the returned mapping is
/// verified at the found period, which the session is left at. Returns
/// nullopt when even `period_hi` fails. Compared against the joint flow,
/// the gap between the two minima quantifies the false negatives of staged
/// mapping (Section I).
std::optional<MinimalPeriodResult> minimal_feasible_period_budget_first(
    SolverSession& session, Index graph_index, double period_hi,
    double rel_tol, double rounding_eps, bool verify_result);

}  // namespace bbs::core
