// Top-level API: simultaneous budget and buffer size computation.
//
// compute_budgets_and_buffers() is the end-to-end flow of the paper:
//   1. translate the configuration into the Algorithm-1 SOCP,
//   2. solve it with the interior-point method,
//   3. round budgets and capacities conservatively,
//   4. verify each task graph's throughput with the independent MCR check
//      and the platform constraints with exact integer arithmetic.
//
// The result carries both the continuous optimum (what the paper's figures
// plot) and the rounded allocation (what a mapping flow would deploy).
#pragma once

#include <vector>

#include "bbs/core/program_builder.hpp"
#include "bbs/core/verification.hpp"
#include "bbs/solver/ipm_solver.hpp"

namespace bbs::core {

struct TaskAllocation {
  double budget_continuous = 0.0;  ///< beta'(w) from the SOCP
  Index budget = 0;                ///< beta(w) = g*ceil(beta'/g)
};

struct BufferAllocation {
  double tokens_continuous = 0.0;  ///< delta'(e) of the space queue
  Index capacity = 0;              ///< gamma(b) = iota + ceil(delta')
};

struct MappedGraph {
  std::vector<TaskAllocation> tasks;
  std::vector<BufferAllocation> buffers;
  GraphVerification verification;
};

struct MappingResult {
  solver::SolveStatus status = solver::SolveStatus::kNumericalFailure;
  std::vector<MappedGraph> graphs;
  /// Objective of the continuous SOCP optimum.
  double objective_continuous = 0.0;
  /// Same weighted objective evaluated on the rounded allocation.
  double objective_rounded = 0.0;
  int ipm_iterations = 0;
  /// True iff the IPM solve behind this result was seeded from a previous
  /// solution (warm-started SolverSession solves only; always false for
  /// one-shot solves). Carried for every result kind, also infeasible ones.
  bool warm_started = false;
  /// Recovery-ladder attempts the solve consumed after an initial numerical
  /// failure (see SolverOptions::recovery_attempts), and whether one of
  /// them produced this result.
  int recovery_attempts = 0;
  bool recovered = false;
  /// True iff the SOCP was solved, rounding succeeded, every graph passes
  /// the MCR verification and the platform constraints hold.
  bool verified = false;
  /// True iff this allocation rounds the IPM's reduced-accuracy iterate
  /// (SolveStatus::kInaccurate) and was accepted because it verified: a
  /// lone solve that neither converged nor produced a certificate.
  bool reduced_accuracy = false;

  bool feasible() const { return status == solver::SolveStatus::kOptimal; }
  /// True iff the solve exited early on a deadline or cancellation: the
  /// result is neither a solution nor an infeasibility certificate, and
  /// search drivers must abort rather than read it as an infeasible probe.
  bool interrupted() const {
    return status == solver::SolveStatus::kTimedOut ||
           status == solver::SolveStatus::kCancelled;
  }
};

struct MappingOptions {
  solver::SolverOptions ipm;
  /// Run the MCR/platform verification pass on the rounded solution.
  bool verify = true;
  /// Rounding tolerance (see bbs/core/rounding.hpp).
  double rounding_eps = 1e-7;
};

/// Computes budgets and buffer capacities for all task graphs of the
/// configuration simultaneously. Throws ModelError for invalid
/// configurations; solver failures are reported through `status`.
MappingResult compute_budgets_and_buffers(const model::Configuration& config,
                                          const MappingOptions& options = {});

/// Convenience: solves with `options` but a caller-provided pre-built
/// program (used by the sweeps to avoid re-validating identical structure).
MappingResult solve_built_program(const model::Configuration& config,
                                  const BuiltProgram& program,
                                  const MappingOptions& options);

/// The rounding + verification tail of the flow: turns a raw IPM solution of
/// `program` into a MappingResult. Shared by the one-shot solvers above and
/// the warm-started SolverSession (which produces the SolveResult through a
/// persistent workspace). A kInaccurate solution is rounded too, but its
/// result is not feasible() until settle_lone_solve accepts it.
MappingResult mapping_from_solution(const model::Configuration& config,
                                    const BuiltProgram& program,
                                    const solver::SolveResult& solution,
                                    const MappingOptions& options);

/// Aborts a multi-solve driver when a probe was interrupted: kTimedOut
/// throws DeadlineExceeded, kCancelled throws Cancelled; anything else is a
/// no-op (kNumericalFailure is deliberately NOT an interruption — search
/// drivers treat a numerically failed probe as infeasible and keep
/// searching, which only single, final solves escalate to a hard error).
/// Without this a bisection or sweep would silently misread the
/// half-finished probe as an infeasible point.
void throw_if_interrupted(const MappingResult& result);

/// The exit of a lone solve (a solve or latency request), which has no
/// bracket to fall back on: optima and infeasibility certificates pass
/// through; a kInaccurate result is promoted to a verified optimum with
/// `reduced_accuracy` set when its rounded allocation passes verification.
/// Anything else — a stall, a breakdown, an inaccurate allocation that does
/// not verify — throws NumericalError: it is neither a solution nor a
/// certificate, so it must not read as "infeasible". Interrupted solves
/// throw as in throw_if_interrupted.
void settle_lone_solve(const model::Configuration& config,
                       MappingResult& result);

/// (Re)runs the MCR + platform verification pass on a feasible rounded
/// mapping, filling per-graph verification data and `verified`. Lets search
/// drivers probe with `options.verify == false` — a probe is only a
/// feasibility query — and verify just the mapping they return. No-op on
/// infeasible results.
void verify_mapping(const model::Configuration& config, MappingResult& result);

}  // namespace bbs::core
