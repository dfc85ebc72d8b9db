// Warm-started solver sessions for repeated solves of one problem
// structure.
//
// The drivers the paper evaluates — the capacity trade-off sweep and the
// throughput binary search — solve the *same* Algorithm-1 program dozens of
// times with only a handful of bound/rhs entries changed between solves.
// A SolverSession amortises everything that is structure-bound across those
// solves, in three layers:
//
//   1. the conic program is built once; parameter changes (buffer capacity
//      caps, target periods, fixed phase-1 budgets/deltas) mutate only the
//      affected h entries and -mu coefficients in place (ProgramRowMap);
//   2. the interior-point solver runs through a persistent IpmWorkspace, so
//      the KKT system — including its one-time symbolic factorisation —
//      the Ruiz scaling buffers and all iterate vectors survive across
//      solves (KktSystem::stats().symbolic_factorisations == 1 for the
//      whole session);
//   3. each solve is warm-started from the previous optimal point, pushed
//      back into the cone interior (falls back to a cold start after an
//      infeasible solve).
//
// The session owns a private copy of the configuration: parameter setters
// mutate the copy and the program in lockstep, and the caller's
// configuration is never touched.
#pragma once

#include "bbs/core/budget_buffer_solver.hpp"

namespace bbs::core {

struct SessionOptions {
  /// Per-solve options (IPM, rounding, verification). Warm starting is
  /// controlled by mapping.ipm.warm_start.
  MappingOptions mapping;
  /// Build-time options: fix budgets (two-phase budget-first) or deltas
  /// (two-phase buffer-first) to make the per-solve program an LP /
  /// reduced SOCP.
  BuildOptions build;
  /// Two-sided warm seeding for bisection-style drivers: keep the final
  /// iterate of the last *infeasible* solve next to the last feasible
  /// optimum, and seed each solve from whichever snapshot has the lower
  /// residual merit on the current problem data. The feasible optimum wins
  /// unless the infeasible-side iterate is strictly closer to the embedding
  /// slice the solver restarts in, so this never degrades the one-sided
  /// behaviour. Requires mapping.ipm.warm_start.
  bool two_sided_warm_seeds = true;
};

/// Per-request control for a (possibly pooled) session: a wall-clock
/// budget, a shared cancellation token, the chaos tests' injected-failure
/// hook, a trace sink and the log verbosity. Installed with
/// SolverSession::set_solve_control before the request's solves and cleared
/// afterwards, so sessions pooled across requests never leak one request's
/// deadline (or logging) into the next.
struct SolveControl {
  double time_limit_ms = 0.0;  ///< per-solve budget; 0 = unlimited
  /// Absolute deadline shared by every solve of the request (sweeps and
  /// bisections spend one budget across all probes); max() = none.
  solver::CancelToken::Clock::time_point deadline =
      solver::CancelToken::Clock::time_point::max();
  std::shared_ptr<solver::CancelToken> cancel;
  int fail_at_iteration = -1;  ///< fault injection; -1 = off
  /// Scope the injected failure to the first solve attempt only, so the
  /// recovery ladder can be observed recovering (ipm.fail_once); false
  /// keeps the classic re-firing fault (ipm.fail_at) that exhausts it.
  bool fail_only_first_attempt = false;
  /// Per-execution trace sink for IPM iteration/ladder events (request
  /// tracing); not owned, must outlive the request. nullptr = no events.
  solver::IpmTraceSink* trace_sink = nullptr;
  /// IPM stderr logging for this request (SolverOptions::verbosity).
  int verbosity = 0;
};

/// Which snapshot seeded a solve (see SolverSession::seed_stats()).
enum class SeedSide { kCold, kFeasible, kInfeasible };

/// Cumulative seed bookkeeping of one session: how often each side supplied
/// the warm start, and the interior-point iterations spent downstream of
/// each seed kind — the per-probe iteration deltas that the bisection
/// drivers' warm-start experiments compare.
struct SeedStats {
  int seeded_feasible = 0;    ///< solves seeded from the last feasible optimum
  int seeded_infeasible = 0;  ///< solves seeded from the last infeasible iterate
  int cold = 0;               ///< solves with no usable seed
  long iterations_seeded_feasible = 0;
  long iterations_seeded_infeasible = 0;
  long iterations_cold = 0;
  int last_iterations = 0;  ///< iterations of the most recent solve
  int last_feasible_updates = 0;    ///< feasible-side snapshot refreshes
  int last_infeasible_updates = 0;  ///< infeasible-side snapshot refreshes
};

class SolverSession {
 public:
  /// Builds the Algorithm-1 program for `config` once. Throws ModelError on
  /// invalid configurations. Buffers that should receive in-place cap
  /// updates later must have a finite max_capacity here (the cap row must
  /// exist in the built program).
  explicit SolverSession(const model::Configuration& config,
                         SessionOptions options = {});

  // --- In-place parameter updates ------------------------------------------
  // Each mutates the session's configuration copy and the built program in
  // lockstep; the problem structure (sparsity pattern, cone, variables) is
  // preserved, which is what keeps the workspace's symbolic factorisation
  // valid.

  /// Sets the capacity cap of one buffer (>= 1; the buffer must have been
  /// capped at construction time).
  void set_buffer_cap(Index graph, Index buffer, Index cap);
  /// Sets a common capacity cap on all buffers of a graph (the trade-off
  /// sweep's step).
  void set_all_buffer_caps(Index graph, Index cap);
  /// Sets a graph's required period mu(T) (the binary search's step).
  void set_required_period(Index graph, double period);
  /// Replaces a graph's fixed phase-1 budgets (sessions built with
  /// BuildOptions::fixed_budgets only).
  void set_fixed_budgets(Index graph, const Vector& budgets);
  /// Replaces a graph's fixed phase-1 space-token counts (sessions built
  /// with BuildOptions::fixed_deltas only).
  void set_fixed_deltas(Index graph, const Vector& deltas);

  /// Installs per-request interruption control (deadline, cancel token,
  /// injected failure) for subsequent solve() calls. An interrupted solve
  /// reports kTimedOut/kCancelled through the MappingResult and refreshes
  /// no warm snapshot — the program, workspace and symbolic factorisation
  /// stay valid, so the session remains fully reusable afterwards.
  void set_solve_control(const SolveControl& control);
  /// Restores the session's base solver options (no deadline, no token).
  void clear_solve_control();

  /// Solves the current program through the persistent workspace and runs
  /// the usual rounding + verification tail. Equivalent (up to solver
  /// tolerances) to compute_budgets_and_buffers on the mutated
  /// configuration, but without any per-solve setup.
  MappingResult solve();

  /// The session's configuration copy (reflects all parameter updates).
  const model::Configuration& config() const { return config_; }
  const BuiltProgram& program() const { return program_; }
  /// Persistent solver state; workspace().kkt()->stats() exposes the
  /// symbolic-reuse invariant, workspace().total_iterations() the
  /// cumulative IPM effort.
  const solver::IpmWorkspace& workspace() const { return workspace_; }
  int solves() const { return workspace_.solves(); }
  long total_ipm_iterations() const { return workspace_.total_iterations(); }

  /// The options this session was constructed with (structure cache: the
  /// build/mapping options are part of the persisted session payload).
  const SessionOptions& options() const { return options_; }

  /// Offers a cached KKT symbolic analysis for the first solve (persistent
  /// structure cache pre-warm). Validated inside the solver; a mismatched
  /// hint falls back to a full derivation, never an error.
  void seed_symbolic(solver::SymbolicAnalysis analysis) {
    workspace_.seed_symbolic(std::move(analysis));
  }
  /// Exports the KKT symbolic analysis after the first solve.
  std::optional<solver::SymbolicAnalysis> export_symbolic() const {
    return workspace_.export_symbolic();
  }
  /// Two-sided seed counters (zeroed at construction).
  const SeedStats& seed_stats() const { return seed_stats_; }
  /// True once a feasible / infeasible solve has stocked the matching
  /// snapshot.
  bool has_feasible_seed() const { return last_feasible_.valid; }
  bool has_infeasible_seed() const { return last_infeasible_.valid; }

 private:
  struct Snapshot {
    bool valid = false;
    Vector x, s, z;
  };

  /// Residual merit of a snapshot on the *current* problem data: how far
  /// the point is from the tau = 1 embedding slice the solver restarts in.
  double seed_merit(const Snapshot& snap) const;
  /// Picks and installs the seed for the next solve; returns the side used.
  SeedSide select_seed();

  SessionOptions options_;
  model::Configuration config_;
  BuiltProgram program_;
  solver::IpmSolver ipm_;
  solver::IpmWorkspace workspace_;
  Snapshot last_feasible_;
  Snapshot last_infeasible_;
  /// Whether the workspace's warm slot currently holds last_feasible_ (the
  /// auto-stored optimum) as opposed to an installed infeasible-side seed.
  bool warm_slot_is_feasible_ = true;
  SeedStats seed_stats_;
};

}  // namespace bbs::core
