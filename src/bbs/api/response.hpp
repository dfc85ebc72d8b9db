// Typed response surface of the service API.
//
// A `Response` mirrors its request: the same kind tag and correlation id,
// a status, a typed result payload, and execution diagnostics (IPM effort,
// warm-start and symbolic-reuse counters, wall time). Responses are plain
// values with a full JSON round-trip (io/api_io.hpp); result arrays are
// ordered exactly like the request's configuration (graph i / task t /
// buffer b of the payload correspond to the same indices of the
// configuration).
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "bbs/core/budget_buffer_solver.hpp"
#include "bbs/core/latency.hpp"
#include "bbs/core/tradeoff.hpp"

namespace bbs::api {

enum class ResponseStatus {
  /// The request executed and produced at least one feasible mapping (for
  /// sweeps: at least one feasible point).
  kOk,
  /// The request executed but no probed configuration was feasible. A
  /// solve or latency request answers this only with an infeasibility
  /// certificate; one that neither converges nor proves infeasibility is a
  /// kError with ErrorCode::kNumericalFailure.
  kInfeasible,
  /// The request could not be executed (malformed model, contract
  /// violation, numerical failure escaping the solver); see `error`.
  kError,
};

const char* to_string(ResponseStatus status);

/// Machine-readable error taxonomy, carried alongside the human-readable
/// `error` string so clients can tell retryable failures (deadline,
/// overload, quota, shutdown) from fatal ones (parse, internal) without
/// string matching. Serialised as `error_code` in the JSON schema
/// (additive to schema v1; absent on non-error responses).
enum class ErrorCode {
  kNone,              ///< not an error response
  kParse,             ///< malformed request / invalid model (fatal)
  kOverQuota,         ///< per-client quota exceeded (retryable, backoff)
  kDeadlineExceeded,  ///< deadline expired in queue or mid-solve (retryable)
  kCancelled,         ///< cancelled via token, e.g. client gone (not retried)
  kOverloaded,        ///< shed at admission: queue over high water (retryable)
  kShuttingDown,      ///< daemon stopping (retryable against a replacement)
  kNumericalFailure,  ///< solver could not converge on this instance (fatal)
  kInternal,          ///< contract violation / unexpected exception (fatal)
};

const char* to_string(ErrorCode code);
/// Inverse of to_string; unknown strings map to kInternal, "" to kNone.
ErrorCode error_code_from_string(const std::string& code);
/// Whether a client should retry a request that failed with this code
/// (possibly after backoff / against another instance).
bool is_retryable(ErrorCode code);

/// Execution diagnostics of one request: where the time and the IPM effort
/// went, and whether the cross-solve reuse machinery was engaged.
struct Diagnostics {
  double wall_ms = 0.0;
  /// Time the request waited in the dispatcher queue before the engine
  /// started on it (0 outside the daemon — the CLI has no queue). Stamped
  /// by the dispatcher on the same clock as solve_ms so the two stages and
  /// the service latency histograms agree.
  double queue_ms = 0.0;
  /// Engine execution wall time (equals wall_ms as stamped by Engine::run;
  /// kept as a separate field so daemon responses carry queue_ms and
  /// solve_ms side by side).
  double solve_ms = 0.0;
  /// Interior-point iterations summed over every solve of this request.
  long ipm_iterations = 0;
  /// Number of IPM solves the request performed (sweep points, bisection
  /// probes, or 1 for plain solves).
  int solves = 0;
  /// How many of those solves were seeded from a previous optimum.
  int warm_started_solves = 0;
  /// How many solves failed numerically on their first attempt and were
  /// rescued by the solver's recovery ladder (see
  /// solver::SolverOptions::recovery_attempts).
  int recovered_solves = 0;
  /// Symbolic KKT factorisations of the session that served the request
  /// since it was created. Stays 1 for every request of a pooled batch that
  /// shares one problem structure — the reuse invariant.
  long symbolic_factorisations = 0;
  /// True when the request was served by a session created for an earlier
  /// request of the same structure (program build + symbolic analysis were
  /// amortised away entirely).
  bool session_reused = false;
  /// Trace id echoed back to a traced request (RequestOptions::trace);
  /// empty — and absent from the JSON — when tracing was off. The id keys
  /// the daemon's {"kind":"trace"} control line and the slow-request log.
  std::string trace_id;
};

struct SolvePayload {
  core::MappingResult mapping;
};

struct SweepPayload {
  core::TradeoffSweep sweep;
};

struct MinPeriodPayload {
  /// False when even period_hi was infeasible; `period`/`mapping` are then
  /// meaningless and the response status is kInfeasible.
  bool found = false;
  double period = 0.0;
  core::MappingResult mapping;
};

struct TwoPhasePayload {
  /// One mapping per solved capacity (buffer-first sweeps), or exactly one
  /// entry for budget-first and single-capacity buffer-first requests.
  std::vector<core::MappingResult> mappings;
};

struct LatencyPayload {
  core::MappingResult mapping;
  struct GraphBound {
    Index graph = 0;
    /// False when the rounded allocation admits no PAS at the required
    /// period (no latency bound of this form exists).
    bool has_pas = false;
    core::GraphLatency latency;
  };
  std::vector<GraphBound> graphs;
};

using ResponsePayload = std::variant<std::monostate, SolvePayload,
                                     SweepPayload, MinPeriodPayload,
                                     TwoPhasePayload, LatencyPayload>;

struct Response {
  std::string id;  ///< echoed from the request
  /// Kind tag of the request this responds to ("solve", "sweep", ...);
  /// kept even for error responses, whose payload is empty.
  std::string kind;
  ResponseStatus status = ResponseStatus::kError;
  std::string error;  ///< human-readable cause when status == kError
  /// Machine-readable cause when status == kError (kNone otherwise).
  ErrorCode error_code = ErrorCode::kNone;
  ResponsePayload payload;
  Diagnostics diagnostics;

  bool ok() const { return status == ResponseStatus::kOk; }
};

}  // namespace bbs::api
