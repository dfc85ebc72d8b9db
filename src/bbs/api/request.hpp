// Typed request surface of the service API.
//
// Every workload the library supports — the paper's joint solve, the
// capacity trade-off sweep, the maximum-throughput binary search, the
// two-phase baselines and the latency analysis — is expressed as one
// `Request` value: a tagged variant over per-kind payloads, each carrying
// the full `model::Configuration` it operates on plus its kind-specific
// options. Requests are plain values: serialisable (see io/api_io.hpp),
// copyable, and independent of any solver state. `api::Engine` executes
// them (engine.hpp), and it alone knows how each kind prepares its solver
// session.
#pragma once

#include <string>
#include <variant>

#include "bbs/model/configuration.hpp"
#include "bbs/solver/ipm_solver.hpp"

namespace bbs::api {

using linalg::Index;

/// Options honoured by every request kind. The IPM options and
/// `rounding_eps` are baked into the solver session that serves the
/// request, so requests that differ in them never share a pooled session.
struct RequestOptions {
  solver::SolverOptions ipm;
  /// Run the independent MCR/platform verification pass on every mapping
  /// the request returns (sweep points report budgets/capacities only and
  /// are never verified).
  bool verify = true;
  /// Rounding tolerance (see bbs/core/rounding.hpp).
  double rounding_eps = 1e-7;
  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// The budget covers the request's whole life — in a service deployment
  /// it starts ticking at enqueue, so time spent waiting in a worker queue
  /// counts. Expiry yields a structured `deadline_exceeded` error; each
  /// request of a batch gets its own budget. Deadlines do NOT enter the
  /// session pool key: requests that differ only in deadline_ms share a
  /// pooled session.
  double deadline_ms = 0.0;
  /// Request tracing opt-in: the service allocates a telemetry::Trace for
  /// this request, stamps pipeline spans (queue/solve/write) on it, and
  /// echoes the trace id in Diagnostics.trace_id. Per-execution state like
  /// deadline_ms — excluded from the session pool key. Default off so the
  /// hot path stays allocation-free.
  bool trace = false;
  /// Additionally emit per-IPM-iteration and recovery-ladder events into
  /// the trace (implies trace). Separate flag because iteration events are
  /// the bulk of a trace's cost.
  bool trace_ipm = false;
};

/// compute_budgets_and_buffers: the paper's joint budget/buffer solve.
struct SolveRequest {
  model::Configuration configuration;
};

/// Capacity trade-off sweep (core::sweep_max_capacity): common capacity
/// bound of graph `graph` swept over [cap_lo, cap_hi], one joint solve per
/// step. Buffers of the swept graph are capped at the swept bound
/// regardless of their configured max_capacity.
struct SweepRequest {
  model::Configuration configuration;
  Index graph = 0;
  Index cap_lo = 1;
  Index cap_hi = 1;
};

/// Throughput bisection (core::minimal_feasible_period{,_budget_first}):
/// smallest feasible required period of graph `graph`, by bisection below
/// `period_hi`.
struct MinPeriodRequest {
  enum class Flow { kJoint, kBudgetFirst };
  model::Configuration configuration;
  Index graph = 0;
  double period_hi = 0.0;
  double rel_tol = 1e-4;
  Flow flow = Flow::kJoint;
};

/// The staged two-phase baselines (core/two_phase.hpp). Budget-first
/// ignores the capacity fields. Buffer-first fixes every buffer at
/// min(cap, max_capacity) containers for each cap in [cap_lo, cap_hi]; with
/// cap_hi == -1 only cap_lo is solved.
struct TwoPhaseRequest {
  enum class Mode { kBudgetFirst, kBufferFirst };
  model::Configuration configuration;
  Mode mode = Mode::kBudgetFirst;
  Index cap_lo = 1;
  Index cap_hi = -1;
};

/// Joint solve followed by worst-case source-to-sink latency bounds on the
/// rounded allocation (core/latency.hpp), for graph `graph` or for every
/// graph when `graph == -1`.
struct LatencyRequest {
  model::Configuration configuration;
  Index graph = -1;
};

using RequestPayload = std::variant<SolveRequest, SweepRequest,
                                    MinPeriodRequest, TwoPhaseRequest,
                                    LatencyRequest>;

struct Request {
  /// Caller-chosen correlation id, echoed verbatim in the response (JSONL
  /// batch streams rely on it; may stay empty).
  std::string id;
  RequestOptions options;
  RequestPayload payload;

  /// The embedded configuration of whichever kind this request is.
  const model::Configuration& configuration() const;
  model::Configuration& configuration();
  /// Stable kind tag: "solve", "sweep", "min_period", "two_phase",
  /// "latency" — the same strings the JSON schema uses.
  const char* kind() const;
};

}  // namespace bbs::api
